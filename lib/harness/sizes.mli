(** Scaled workload parameterisations.

    The paper's runs are sized for a 40-core Optane box; ours must finish
    on one simulated core in minutes. Each helper keeps the {e total}
    operation count of a run roughly constant across thread counts, so a
    thread sweep measures scalability rather than workload growth; the
    per-experiment scale factors are documented in EXPERIMENTS.md. *)

val threads_sweep : int list
(** [1; 2; 4; 8; 16; 32; 64], as in Figures 9-14 and 20-21. *)

val threadtest : int -> Workloads.Threadtest.params
val prodcon : int -> Workloads.Prodcon.params
val shbench : int -> Workloads.Shbench.params
val larson_small : int -> Workloads.Larson.params
val larson_large : int -> Workloads.Larson.params
val dbmstest : int -> Workloads.Dbmstest.params
