(** Allocator-instance factory used by all experiments. *)

type kind =
  | Pmdk
  | Nvm_malloc
  | Pallocator
  | Makalu
  | Ralloc
  | Jemalloc
  | Tcmalloc
  | Nv_log  (** NVAlloc-LOG, all optimisations on *)
  | Nv_gc  (** NVAlloc-GC, all optimisations on *)
  | Nv_ic  (** NVAlloc-IC (internal collection), the future-work variant *)
  | Nv_custom of string * Nvalloc_core.Config.t  (** ablations / sensitivity *)

val name : kind -> string

val force_sync : bool ref
(** When set, every NVAlloc config {!make} builds runs with
    [Config.batch] off. Lets the CLI's [--no-batch] flag compare the
    synchronous persistence pipeline across whole experiment runs
    without threading a parameter through the registry. Baselines are
    unaffected. Default [false]. *)

val make :
  ?eadr:bool ->
  ?dev_size:int ->
  ?root_slots:int ->
  threads:int ->
  kind ->
  Alloc_api.Instance.t
(** Default device size 512 MiB, default root slots 2^18. *)

val strong : kind list
(** The paper's strongly consistent set: PMDK, nvm_malloc, PAllocator,
    NVAlloc-LOG (Figure 9). *)

val weak : kind list
(** Makalu, Ralloc, NVAlloc-GC (Figure 10). *)

val large_set : kind list
(** Figure 12's set (Ralloc excluded as in the paper). *)

val log_full : Nvalloc_core.Config.t
val log_stripes : int -> Nvalloc_core.Config.t
val log_su : float -> Nvalloc_core.Config.t
