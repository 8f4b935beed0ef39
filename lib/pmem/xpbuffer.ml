type t = {
  lat : Latency.t;
  mutable media_free : int; (* virtual time the media catches up with the queue *)
  mutable stalls : int;
}

(* Media occupancy is a flush cost divided by the parallelism; in whole
   ns every such quotient must be exact. *)
let validate (lat : Latency.t) =
  let p = lat.media_parallelism in
  let reject fmt = Printf.ksprintf invalid_arg ("Pmem.Xpbuffer.create: " ^^ fmt) in
  if p <= 0 then reject "media_parallelism must be positive (got %d)" p;
  let check name ns =
    if ns mod p <> 0 then reject "%s = %d ns does not divide by media_parallelism = %d" name ns p
  in
  check "seq_flush_ns" lat.seq_flush_ns;
  check "rand_flush_ns" lat.rand_flush_ns;
  for d = 0 to lat.reflush_window - 1 do
    check
      (Printf.sprintf "reflush cost at distance %d" d)
      (Latency.flush_cost lat ~distance:d ~sequential:false)
  done

let create lat =
  validate lat;
  { lat; media_free = 0; stalls = 0 }

let reset t =
  t.media_free <- 0;
  t.stalls <- 0

let admit t ~now ~media_ns =
  let lat = t.lat in
  (* The WPQ absorbs up to [capacity] entries of backlog; beyond that the
     flush stalls until the media catches up. Each admitted line occupies
     the shared media for its classified latency divided by the media
     parallelism, which is what bounds aggregate flush bandwidth. *)
  let window = lat.Latency.wpq_capacity * lat.Latency.wpq_drain_ns in
  let stall = Int.max 0 (t.media_free - now - window) in
  t.stalls <- t.stalls + stall;
  let start = now + stall in
  t.media_free <- Int.max t.media_free start + (media_ns / lat.Latency.media_parallelism);
  start + media_ns

let stall_time t = t.stalls

(* Telemetry-only — never consulted on the simulation path. *)
let backlog t ~now = Int.max 0 (t.media_free - now)
