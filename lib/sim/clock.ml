(* The time lives in a single-field all-float record: stores to [st.now]
   write an unboxed float in place, where a float field in the mixed
   (float + int) record this used to be would allocate a fresh box on
   every [charge]/[wait_until] — once or twice per simulated flush. *)
type state = { mutable now : float }
type t = { st : state; id : int }

(* Atomic: domain-parallel seed sweeps (lib/par) build instances — and
   therefore clocks — from several domains at once (one allocator stack
   per swept seed); ids must stay unique across them. Within one
   instance clocks are still created sequentially, so the relative
   creation order that telemetry's tid normalisation relies on is
   unchanged. *)
let counter = Atomic.make 0

let create () = { st = { now = 0.0 }; id = Atomic.fetch_and_add counter 1 + 1 }

let now t = t.st.now
let id t = t.id
let charge t ns = t.st.now <- t.st.now +. ns
let wait_until t time = if time > t.st.now then t.st.now <- time

(* Benchmark support: restart a thread's clock (e.g. FPTree re-runs the
   same instance for several phases and times each from zero). *)
let restart t = t.st.now <- 0.0
