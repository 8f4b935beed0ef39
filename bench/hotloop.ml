(* Manual hot-loop timer for the substrate fast path: breaks the
   device write+flush path into phases so a regression in one layer is
   attributable without a profiler (`dune exec bench/hotloop.exe`).

   `--check` runs the device write+flush loop three ways — telemetry
   disabled, sink attached with attribution off, and attribution
   enabled with an open root frame — and compares each against the
   committed BENCH_micro.json envelope: the guard that adding the
   telemetry and attribution layers kept the disabled path free and
   the enabled paths bounded. *)

let mib = 1024 * 1024

let measure iters f =
  let t0 = Unix.gettimeofday () in
  f ();
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int iters

let time name iters f =
  let w0 = Gc.minor_words () in
  let ns = measure iters f in
  let w1 = Gc.minor_words () in
  Printf.printf "%-44s %8.1f ns/iter %6.1f words/iter\n%!" name ns
    ((w1 -. w0) /. float_of_int iters)

(* The telemetry-off guard. The committed baseline is a Bechamel
   estimate of the same write+flush path; the hot loop here has less
   harness overhead but shares the machine's noise, so the envelope is
   deliberately loose (4x): it catches a forgotten sink check making the
   disabled path allocate or branch per event, not percent-level drift
   (scripts/bench_check.sh owns that). Min over rounds, like
   Bench_micro.run_check, so one noisy round cannot fail the gate. *)
let check_envelope = 4.0

(* The enabled paths are allowed to cost more than the disabled one —
   recording a span and a histogram observation per flush (attached),
   plus a blame-tree charge into the open frame (attribution) — but
   that cost must stay bounded: these envelopes catch an accidental
   O(depth) walk or per-charge allocation creeping into the charge
   path, not percent-level drift. *)
let attached_envelope = 10.0
let attribution_envelope = 15.0

let run_check () =
  let baseline_path = "BENCH_micro.json" in
  let base =
    Bench_micro.parse_section (Bench_micro.read_file baseline_path) "micro_ns_per_run"
  in
  let base_ns =
    match List.assoc_opt "primitives/device write+flush" base with
    | Some v -> v
    | None ->
        Printf.eprintf "no device write+flush entry in %s\n" baseline_path;
        exit 2
  in
  let n = 2_000_000 in
  let failed = ref false in
  let gate name envelope dev clock =
    let round () =
      measure n (fun () ->
          for i = 0 to n - 1 do
            let addr = i * 64 mod (8 * mib) in
            Pmem.Device.write_int64 dev addr 42L;
            Pmem.Device.flush dev clock Pmem.Stats.Meta ~addr ~len:8
          done)
    in
    let best = ref (round ()) in
    for _ = 2 to 3 do
      let ns = round () in
      if ns < !best then best := ns
    done;
    let limit = base_ns *. envelope in
    Printf.printf "%s write+flush: %.1f ns/iter (baseline %.1f, limit %.1f)\n" name !best
      base_ns limit;
    if !best > limit then begin
      Printf.printf "FAIL: %s hot path exceeds its baseline envelope\n" name;
      failed := true
    end
  in
  let dev = Pmem.Device.create ~size:(16 * mib) () in
  assert (Pmem.Device.telemetry dev = None);
  gate "telemetry-off" check_envelope dev (Sim.Clock.create ());
  let dev_t = Pmem.Device.create ~size:(16 * mib) () in
  let clock_t = Sim.Clock.create () in
  Pmem.Device.set_telemetry dev_t (Some (Telemetry.create ()));
  gate "telemetry-attached" attached_envelope dev_t clock_t;
  let dev_a = Pmem.Device.create ~size:(16 * mib) () in
  let clock_a = Sim.Clock.create () in
  let sink_a = Telemetry.create () in
  Pmem.Device.set_telemetry dev_a (Some sink_a);
  let attr = Telemetry.enable_attribution sink_a in
  (* An open root frame so every flush charge lands in the blame tree,
     like a flush under malloc does. *)
  Telemetry.Attr.enter_root_named attr ~tid:(Sim.Clock.id clock_a) ~name:"bench" ~ts:0;
  gate "attribution-on" attribution_envelope dev_a clock_a;
  if !failed then exit 1;
  Printf.printf "hotloop check OK\n"

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--check" then begin
    run_check ();
    exit 0
  end;
  let n = 5_000_000 in
  let dev = Pmem.Device.create ~size:(16 * mib) () in
  time "write_int64" n (fun () ->
      for i = 0 to n - 1 do
        Pmem.Device.write_int64 dev (i * 64 mod (8 * mib)) 42L
      done);
  let dm = Pmem.Dirtymap.create ~size:(16 * mib) in
  time "dirtymap mark+test+clear" n (fun () ->
      for i = 0 to n - 1 do
        let line = i mod (8 * mib / 64) in
        Pmem.Dirtymap.mark dm line;
        ignore (Pmem.Dirtymap.test dm line);
        Pmem.Dirtymap.clear dm line
      done);
  let ring = Pmem.Lru_ring.create 4 in
  time "lru_ring touch (miss)" n (fun () ->
      for i = 0 to n - 1 do
        ignore (Pmem.Lru_ring.touch ring i)
      done);
  let clock = Sim.Clock.create () in
  time "clock charge" n (fun () ->
      for _ = 0 to n - 1 do
        Sim.Clock.charge clock 20
      done);
  let wpq = Pmem.Xpbuffer.create Pmem.Latency.default in
  time "xpbuffer admit" n (fun () ->
      for i = 0 to n - 1 do
        ignore (Pmem.Xpbuffer.admit wpq ~now:(i * 400) ~media_ns:100)
      done);
  let stats = Pmem.Stats.create () in
  time "stats record_flush" n (fun () ->
      for i = 0 to n - 1 do
        Pmem.Stats.record_flush stats Pmem.Stats.Meta ~addr:(i * 64) ~reflush:false
          ~sequential:true ~ns:100
      done);
  let dev2 = Pmem.Device.create ~size:(16 * mib) () in
  let clock2 = Sim.Clock.create () in
  time "device write+flush (full path)" n (fun () ->
      for i = 0 to n - 1 do
        let addr = i * 64 mod (8 * mib) in
        Pmem.Device.write_int64 dev2 addr 42L;
        Pmem.Device.flush dev2 clock2 Pmem.Stats.Meta ~addr ~len:8
      done);
  (* Same path with a telemetry sink attached: the cost of recording a
     span + histogram observation per flush, for attribution when the
     enabled path gets slower. *)
  let dev_t = Pmem.Device.create ~size:(16 * mib) () in
  let clock_t = Sim.Clock.create () in
  Pmem.Device.set_telemetry dev_t (Some (Telemetry.create ()));
  time "device write+flush (telemetry attached)" n (fun () ->
      for i = 0 to n - 1 do
        let addr = i * 64 mod (8 * mib) in
        Pmem.Device.write_int64 dev_t addr 42L;
        Pmem.Device.flush dev_t clock_t Pmem.Stats.Meta ~addr ~len:8
      done);
  (* Same loop, via an opaque closure, after growing the major heap the
     way the grouped Bechamel run does — isolates harness effects. *)
  let garbage = ref [] in
  for _ = 1 to 6 do
    garbage := Bytes.create (64 * mib) :: !garbage
  done;
  let dev3 = Pmem.Device.create ~size:(16 * mib) () in
  let clock3 = Sim.Clock.create () in
  let i = ref 0 in
  let staged =
    Sys.opaque_identity (fun () ->
        incr i;
        let addr = !i * 64 mod (8 * mib) in
        Pmem.Device.write_int64 dev3 addr 42L;
        Pmem.Device.flush dev3 clock3 Pmem.Stats.Meta ~addr ~len:8)
  in
  time "device write+flush (closure, big heap)" n (fun () ->
      for _ = 0 to n - 1 do
        staged ()
      done);
  ignore (Sys.opaque_identity !garbage)
