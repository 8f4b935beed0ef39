(** Intrusive doubly-linked list with O(1) removal by node handle.

    NVAlloc keeps slabs on an LRU list scanned head-to-tail when choosing
    a morphing candidate (section 5.2), and keeps extents on the
    activated/reclaimed/retained lists; all of them need O(1) unlink of an
    arbitrary element, which OCaml's [List] cannot give. *)

type 'a t
type 'a node

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val value : 'a node -> 'a

val push_front : 'a t -> 'a -> 'a node
val push_back : 'a t -> 'a -> 'a node

val remove : 'a t -> 'a node -> unit
(** Unlink the node. Removing an already-removed node is an error
    (asserted). *)

val pop_front : 'a t -> 'a option

val front : 'a t -> 'a
(** The front value, without an option; [t] must not be empty. *)

val is_last : 'a t -> 'a node -> bool
(** The node is the back of [t]. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front to back. The callback must not modify the list. *)

val find_node : ('a -> bool) -> 'a t -> 'a node option
(** First node (from the front) whose value satisfies the predicate. *)

val to_list : 'a t -> 'a list
