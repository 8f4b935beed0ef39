open Nvalloc_core

type variant = Log | Gc | Ic

type t = {
  variant : variant;
  seed : int;
  ops : int;
  crash_after : int;
  torn : Pmem.Device.torn_mode option;
  torn_seed : int;
  recovery_crash : int option;
  poison : int;
  pseed : int;
  rot : int;
  rseed : int;
  scrub : bool;
}

let media_active t = t.poison > 0 || t.rot > 0 || t.scrub

let config variant =
  let base =
    match variant with
    | Log -> Config.log_default
    | Gc -> Config.gc_default
    | Ic -> Config.ic_default
  in
  {
    base with
    Config.arenas = 2;
    root_slots = 1024;
    booklog_chunks = 128;
    wal_entries = 1024;
    tcache_capacity = 8;
  }

let variant_name = function Log -> "log" | Gc -> "gc" | Ic -> "ic"

let torn_name = function
  | None -> "line"
  | Some Pmem.Device.Torn_prefix -> "prefix"
  | Some Pmem.Device.Torn_suffix -> "suffix"
  | Some Pmem.Device.Torn_random -> "random"

let to_string t =
  let base =
    Printf.sprintf "v=%s seed=%d ops=%d crash=%d torn=%s tseed=%d rcrash=%s"
      (variant_name t.variant) t.seed t.ops t.crash_after (torn_name t.torn) t.torn_seed
      (match t.recovery_crash with None -> "-" | Some n -> string_of_int n)
  in
  (* Media fields are appended only when active, so legacy plans keep
     their exact historical rendering (round-trip and golden stability). *)
  if media_active t then
    base
    ^ Printf.sprintf " poison=%d pseed=%d rot=%d rseed=%d scrub=%d" t.poison t.pseed t.rot
        t.rseed
        (if t.scrub then 1 else 0)
  else base

let of_string s =
  let ( let* ) = Result.bind in
  let* f = Support.Search.fields s in
  let* variant =
    let* v = Support.Search.field f "v" in
    match v with
    | "log" -> Ok Log
    | "gc" -> Ok Gc
    | "ic" -> Ok Ic
    | _ -> Error (Printf.sprintf "field v: unknown variant %S" v)
  in
  let* seed = Support.Search.int_field f "seed" in
  let* ops = Support.Search.int_field f "ops" in
  let* crash_after = Support.Search.int_field f "crash" in
  let* torn =
    let* v = Support.Search.field f "torn" in
    match v with
    | "line" -> Ok None
    | "prefix" -> Ok (Some Pmem.Device.Torn_prefix)
    | "suffix" -> Ok (Some Pmem.Device.Torn_suffix)
    | "random" -> Ok (Some Pmem.Device.Torn_random)
    | _ -> Error (Printf.sprintf "field torn: unknown mode %S" v)
  in
  (* Media fields are optional (absent = 0), so legacy repros parse. *)
  let media_field k = Result.map (Option.value ~default:0) (Support.Search.opt_int_field f k) in
  let* torn_seed = Support.Search.int_field f "tseed" in
  let* recovery_crash = Support.Search.dash_int_field f "rcrash" in
  let* poison = media_field "poison" in
  let* pseed = media_field "pseed" in
  let* rot = media_field "rot" in
  let* rseed = media_field "rseed" in
  let* scrub =
    let* n = media_field "scrub" in
    match n with
    | 0 -> Ok false
    | 1 -> Ok true
    | _ -> Error (Printf.sprintf "field scrub: expected 0 or 1 (got %d)" n)
  in
  if ops < 1 then Error "ops must be >= 1"
  else if crash_after < 1 then Error "crash must be >= 1"
  else if Option.fold ~none:false ~some:(fun n -> n < 1) recovery_crash then
    Error "rcrash must be >= 1"
  else if poison < 0 || rot < 0 then Error "poison/rot must be >= 0"
  else
    Ok
      { variant; seed; ops; crash_after; torn; torn_seed; recovery_crash; poison; pseed; rot;
        rseed; scrub }

let sample ?variant ?(media = false) rng =
  let variant =
    match variant with
    | Some v -> v
    (* Media plans pin the LOG variant: guard replication rides the
       bookkeeping log ([Config.media_replication] requires
       [log_bookkeeping]), and poisoned metadata under the GC variant's
       conservative scan has no demand-repair window. *)
    | None when media -> Log
    | None -> ( match Sim.Rng.int rng 3 with 0 -> Log | 1 -> Gc | _ -> Ic)
  in
  let ops = Sim.Rng.int_in rng 40 700 in
  (* ~4-6 flushed lines per op; sampling past the end just means the
     crash lands at (or survives to) the natural end of the run. *)
  let crash_after = Sim.Rng.int_in rng 1 (ops * 6) in
  let torn =
    match Sim.Rng.int rng 4 with
    | 0 -> None
    | 1 -> Some Pmem.Device.Torn_prefix
    | 2 -> Some Pmem.Device.Torn_suffix
    | _ -> Some Pmem.Device.Torn_random
  in
  let torn_seed = Sim.Rng.int rng 1_000_000 in
  let recovery_crash = if Sim.Rng.bool rng then Some (Sim.Rng.int_in rng 1 200) else None in
  let poison, pseed, rot, rseed, scrub =
    if not media then (0, 0, 0, 0, false)
    else
      (* Always at least one fault source: a media plan with all three
         knobs at zero would silently degenerate to a legacy plan. *)
      let poison = Sim.Rng.int rng 5 in
      let rot = Sim.Rng.int rng 5 in
      let scrub = Sim.Rng.int rng 3 = 0 in
      let poison = if poison = 0 && rot = 0 && not scrub then 1 else poison in
      (poison, Sim.Rng.int rng 1_000_000, rot, Sim.Rng.int rng 1_000_000, scrub)
  in
  { variant; seed = Sim.Rng.int rng 1_000_000; ops; crash_after; torn; torn_seed;
    recovery_crash; poison; pseed; rot; rseed; scrub }

let shrink_candidates t =
  Support.Search.dedup ~key:to_string t
    [
      { t with recovery_crash = None };
      { t with torn = None };
      { t with ops = max 1 (t.ops / 2) };
      { t with ops = max 1 (t.ops - (t.ops / 4)) };
      { t with ops = max 1 (t.ops - 1) };
      { t with crash_after = max 1 (t.crash_after / 2) };
      { t with crash_after = max 1 (t.crash_after - (t.crash_after / 4)) };
      { t with crash_after = max 1 (t.crash_after - 1) };
      (match t.recovery_crash with
      | Some n when n > 1 -> { t with recovery_crash = Some (n / 2) }
      | _ -> t);
      { t with poison = 0; rot = 0; scrub = false };
      { t with scrub = false };
      { t with rot = 0 };
      { t with poison = 0 };
      { t with poison = t.poison / 2 };
      { t with rot = t.rot / 2 };
    ]
