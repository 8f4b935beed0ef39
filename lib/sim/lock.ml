type t = {
  mutable free_at : int;
  mutable contended : int;
  (* Latency attribution: the attached sink and its interned
     [lock_wait] name. Contended acquires charge the stall into the
     waiting thread's open frame; observation only — the wait itself is
     charged identically with or without a sink. *)
  mutable telem : (Telemetry.t * int) option;
}

(* Uncontended acquisition cost: CAS + cache traffic. *)
let acquire_ns = 20
let create () = { free_at = 0; contended = 0; telem = None }

let set_telemetry t sink =
  t.telem <- Option.map (fun s -> (s, Telemetry.intern s "lock_wait")) sink

let acquire t clock =
  if t.free_at > Clock.ns clock then begin
    t.contended <- t.contended + 1;
    (match t.telem with
    | None -> ()
    | Some (s, name) ->
        Telemetry.charge s ~tid:(Clock.id clock) ~name ~ns:(t.free_at - Clock.ns clock));
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
