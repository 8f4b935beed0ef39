type t = {
  mutable free_at : int;
  mutable contended : int;
  (* Observation hook for latency attribution: called with the stall
     duration on contended acquires, before the wait. Must not touch the
     clock — the wait itself is charged identically with or without it. *)
  mutable on_wait : (Clock.t -> int -> unit) option;
}

(* Uncontended acquisition cost: CAS + cache traffic. *)
let acquire_ns = 20
let create () = { free_at = 0; contended = 0; on_wait = None }

let set_wait_hook t hook = t.on_wait <- hook

let acquire t clock =
  if t.free_at > Clock.ns clock then begin
    t.contended <- t.contended + 1;
    (match t.on_wait with None -> () | Some f -> f clock (t.free_at - Clock.ns clock));
    Clock.wait_until clock t.free_at
  end;
  Clock.charge clock acquire_ns;
  (* Reserve the lock up to the holder's current time; extended on
     release. This keeps a second acquirer from slipping in between. *)
  t.free_at <- Clock.ns clock

let release t clock = t.free_at <- Clock.ns clock

let with_lock t clock f =
  acquire t clock;
  let r = f () in
  release t clock;
  r

let contention_count t = t.contended
