(** Red-black tree (ordered map) over [(int, int)] keys, held in arrays.

    NVAlloc keeps its DRAM indexes in red-black trees: the address index
    of extents (the paper calls it an R-tree: keys are extent start
    addresses), the best-fit [(size, addr)] and oldest-first
    [(free_time, addr)] indexes over free extents, and the allocator's
    owner index. They are volatile — recovery rebuilds them from
    persistent state — so their representation is free to choose.

    Keys compare lexicographically, inline; a one-int key passes 0 as
    the second component. A node is an index into two arrays: an int
    array of keys, links and colours (no store into it calls
    [caml_modify]) and the values. Removed nodes are reused by later
    inserts; a freed slot holds the [dummy] given to {!create}, so it
    keeps no removed value reachable. Updates rebalance in place with the
    CLRS fix-ups. Cost model, host side: once the arrays have grown
    (doubling), no update or query allocates — queries return a node or
    {!none}, never a key tuple or an option; {!remove_node} needs no
    search; the rest take O(log n) inline key compares.

    Tree work costs no simulated time by itself: callers charge the
    simulated cost of a search through {!search_steps}.

    Two contracts:

    - do not mutate a tree from inside [iter] or [fold] over it: collect
      what to change first, then change it;
    - an update calls nothing that can raise except the array growth of
      [insert], which precedes any link change, so an exception raised
      elsewhere — an injected crash — can never leave a rebalance half
      done. *)

val search_steps : int -> int
(** Simulated steps of one search in a tree of [n] bindings:
    [1 + floor (log2 n)], and 1 when [n <= 1]. Exact for every [n]: read
    from the exponent of an exactly converted float, with no loop and no
    [log2]. *)

type 'a t

type node = int
(** A binding's handle, valid until the binding is removed. *)

val none : node

val create : dummy:'a -> 'a t
(** Allocates its arrays at the first insert. *)

val cardinal : 'a t -> int

val insert : 'a t -> int -> int -> 'a -> node
(** Replaces the value of an existing binding, returning its node. *)

val remove : 'a t -> int -> int -> unit
(** No-op if the key is absent. *)

val remove_node : 'a t -> node -> unit

val value : 'a t -> node -> 'a
(** [value t none] is the dummy, which then reads as "absent". *)

val key1 : 'a t -> node -> int
val key2 : 'a t -> node -> int
val find : 'a t -> int -> int -> node
val min_node : 'a t -> node
val max_node : 'a t -> node

val find_first_geq : 'a t -> int -> int -> node
(** Smallest binding whose key is >= the argument. *)

val find_last_leq : 'a t -> int -> int -> node
(** Largest binding whose key is <= the argument. *)

val find_last_lt : 'a t -> int -> int -> node
(** Largest binding whose key is < the argument (left neighbour). *)

val iter : (int -> int -> 'a -> unit) -> 'a t -> unit
(** In increasing key order. *)

val fold : (int -> int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

val invariants_ok : 'a t -> bool
(** Checks BST order, no red node with a red child, equal black height
    on all paths, a black root, every node's parent link, that
    [cardinal] counts the nodes, and that the free list holds every
    other slot, each with the dummy. Exposed for the property tests. *)
