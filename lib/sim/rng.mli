(** Deterministic pseudo-random number generator (splitmix64).

    All workload generators, and the scheduler's seeded pick rule, draw
    from this module so that every experiment and every checked
    interleaving is reproducible bit-for-bit across runs and OCaml
    versions, which the crash-injection tests rely on.

    A generator is one sequential stream. [Fault.Fuzz.fuzz] draws all
    its plans from one before any runs, so they do not depend on how
    many domains run them. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p]; unlike a returned float, the
    result is not boxed. Int and bool draws allocate nothing either. *)

val bool : t -> bool

val poisson_in : t -> int -> int -> int
(** [poisson_in t lo hi] draws from a (truncated, discretised) Poisson-like
    distribution centred between [lo] and [hi], clamped to the range.
    DBMStest uses this for its 32 KB - 512 KB object sizes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
