type t = { mutable ns : int; id : int }

(* Atomic: [Support.Search] on N domains ([fuzz]/[check --domains])
   builds instances — and therefore clocks — from several domains at
   once (one allocator stack per case); ids must stay unique across
   them. Within one instance clocks are still created sequentially, so
   the relative creation order that telemetry's tid normalisation
   relies on is unchanged. *)
let counter = Atomic.make 0

let create () = { ns = 0; id = Atomic.fetch_and_add counter 1 + 1 }

let ns t = t.ns
let now t = float_of_int t.ns
let id t = t.id
let charge t ns = t.ns <- t.ns + ns
let wait_until t time = if time > t.ns then t.ns <- time

(* Benchmark support: restart a thread's clock (e.g. FPTree re-runs the
   same instance for several phases and times each from zero). *)
let restart t = t.ns <- 0
