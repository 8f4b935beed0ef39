(** Red-black tree (ordered map), updated in place.

    NVAlloc keeps its DRAM indexes in red-black trees: the address index
    of extents (the paper calls it an R-tree: keys are extent start
    addresses), the best-fit size and oldest-first decay indexes over free
    extents, the vchunk index of the bookkeeping log and the allocator's
    owner index. They are volatile — recovery rebuilds them from
    persistent state — so their representation is free to choose.

    Nodes are mutable and carry parent links; insertion and deletion
    rebalance in place with the CLRS fix-ups. Cost model, host side:

    - [insert] of a new key allocates one node (7 words); replacing an
      existing binding allocates nothing;
    - [remove] allocates nothing;
    - a query allocates at most its result ([Some v] or [Some (k, v)]),
      and builds no closure per call;
    - updates and queries take O(log n) comparisons.

    Tree work costs no simulated time by itself: callers charge the
    simulated cost of a search through {!search_steps}.

    Two contracts:

    - do not mutate a tree from inside [iter] or [fold] over it: collect
      what to change first, then change it;
    - an update calls nothing but [Ord.compare] (which must not raise),
      so an exception raised elsewhere — an injected crash — can never
      leave a rebalance half done.

    [find_first_geq]/[find_last_leq] provide the ceiling/floor searches
    that best-fit allocation and neighbour coalescing need. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

val search_steps : int -> int
(** Simulated steps of one search in a tree of [n] bindings:
    [1 + floor (log2 n)], and 1 when [n <= 1]. Integer arithmetic only. *)

module Make (Ord : ORDERED) : sig
  type key = Ord.t
  type 'a t

  val create : unit -> 'a t
  val is_empty : 'a t -> bool
  val cardinal : 'a t -> int

  val insert : 'a t -> key -> 'a -> unit
  (** Replaces any existing binding for the key. *)

  val remove : 'a t -> key -> unit
  (** No-op if the key is absent. *)

  val find_opt : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val min_binding_opt : 'a t -> (key * 'a) option
  val max_binding_opt : 'a t -> (key * 'a) option

  val find_first_geq : 'a t -> key -> (key * 'a) option
  (** Smallest binding whose key is >= the argument. *)

  val find_last_leq : 'a t -> key -> (key * 'a) option
  (** Largest binding whose key is <= the argument. *)

  val find_last_lt : 'a t -> key -> (key * 'a) option
  (** Largest binding whose key is < the argument (left neighbour). *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit
  (** In increasing key order. *)

  val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  val to_list : 'a t -> (key * 'a) list

  val invariants_ok : 'a t -> bool
  (** Checks BST order, no red node with a red child, equal black height
      on all paths, a black root, every node's parent link, and that
      [cardinal] counts the nodes. Exposed for the property tests. *)
end
