(* Simulation kernel: rng determinism, clock/lock semantics, the
   min-clock scheduler, the chunked store, and the XPBuffer bound. *)

let test_rng_determinism () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next_int64 a) (Sim.Rng.next_int64 b)
  done

let prop_rng_bounds =
  let open QCheck in
  Test.make ~name:"rng int stays in bounds" ~count:300
    (make Gen.(pair (int_range 1 1000000) (int_range 0 10000)))
    (fun (bound, seed) ->
      let rng = Sim.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Sim.Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rng_shuffle_is_permutation =
  let open QCheck in
  Test.make ~name:"shuffle permutes" ~count:200
    (make Gen.(pair (int_range 0 1000) (list_size (int_bound 50) (int_bound 100))))
    (fun (seed, l) ->
      let arr = Array.of_list l in
      Sim.Rng.shuffle (Sim.Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let test_lock_serializes () =
  let lock = Sim.Lock.create () in
  let a = Sim.Clock.create () and b = Sim.Clock.create () in
  Sim.Lock.acquire lock a;
  Sim.Clock.charge a 1000;
  Sim.Lock.release lock a;
  (* b arrives earlier but must wait until a released. *)
  Sim.Lock.acquire lock b;
  Alcotest.(check bool) "b waited for a" true (Sim.Clock.ns b >= 1000);
  Alcotest.(check int) "contention counted" 1 (Sim.Lock.contention_count lock)

let test_scheduler_min_clock () =
  (* The slower thread's steps interleave after the faster one's. *)
  let order = ref [] in
  let mk name cost n =
    let clock = Sim.Clock.create () in
    let left = ref n in
    {
      Sim.Scheduler.clock;
      step =
        (fun () ->
          if !left = 0 then false
          else begin
            decr left;
            order := name :: !order;
            Sim.Clock.charge clock cost;
            true
          end);
    }
  in
  let fast = mk "f" 10 4 in
  let slow = mk "s" 100 2 in
  Sim.Scheduler.run [| fast; slow |];
  (* All fast steps (40ns total) happen before the second slow step. *)
  let l = List.rev !order in
  Alcotest.(check (list string)) "interleaving" [ "f"; "s"; "f"; "f"; "f"; "s" ] l;
  Alcotest.(check int) "makespan" 200 (Sim.Scheduler.makespan [| fast; slow |])

(* The seeded pick rule: every thread still runs to completion, the
   order is a pure function of the seed, and it reaches orders the
   min-clock rule never produces (a slow thread stepping twice before a
   fast one that is behind it in simulated time). *)
let test_scheduler_seeded () =
  let order_of seed =
    let order = ref [] in
    let mk name cost n =
      let clock = Sim.Clock.create () in
      let left = ref n in
      {
        Sim.Scheduler.clock;
        step =
          (fun () ->
            if !left = 0 then false
            else begin
              decr left;
              order := name :: !order;
              Sim.Clock.charge clock cost;
              true
            end);
      }
    in
    Sim.Scheduler.run ~rng:(Sim.Rng.create seed) [| mk "f" 10 4; mk "s" 100 2 |];
    String.concat "" (List.rev !order)
  in
  let orders = List.init 32 order_of in
  List.iter
    (fun o ->
      Alcotest.(check int) "every step ran" 6 (String.length o);
      Alcotest.(check int) "slow thread finished" 2
        (List.length (List.filter (( = ) 's') (List.of_seq (String.to_seq o)))))
    orders;
  Alcotest.(check string) "same seed, same order" (order_of 7) (order_of 7);
  Alcotest.(check bool) "seeds reach several orders" true
    (List.length (List.sort_uniq compare orders) > 2);
  Alcotest.(check bool) "an order min-clock never produces" true
    (List.exists (fun o -> String.length o > 1 && String.sub o 0 2 = "ss") orders)

let test_store_straddling () =
  let s = Pmem.Store.create ~size:(4 * Pmem.Store.chunk_bytes) in
  (* Write an int64 across a chunk boundary. *)
  let addr = Pmem.Store.chunk_bytes - 3 in
  Pmem.Store.set_i64 s addr 0x1122334455667788L;
  Alcotest.(check int64) "straddling i64" 0x1122334455667788L (Pmem.Store.get_i64 s addr);
  Alcotest.(check int) "byte on far side" 0x11 (Pmem.Store.get_u8 s (addr + 7));
  (* Unwritten chunks read as zero. *)
  Alcotest.(check int64) "lazy zero" 0L (Pmem.Store.get_i64 s (3 * Pmem.Store.chunk_bytes))

let prop_store_model =
  let open QCheck in
  Test.make ~name:"store agrees with a Bytes model" ~count:100
    (make
       Gen.(
         list_size (int_range 1 60)
           (pair (int_range 0 (65536 - 8)) (int_range 0 0xFFFF))))
    (fun writes ->
      let s = Pmem.Store.create ~size:65536 in
      let model = Bytes.make 65536 '\000' in
      List.iter
        (fun (addr, v) ->
          match v mod 3 with
          | 0 ->
              Pmem.Store.set_u8 s addr (v land 0xFF);
              Bytes.set_uint8 model addr (v land 0xFF)
          | 1 ->
              Pmem.Store.set_u16 s addr v;
              Bytes.set_uint16_le model addr v
          | _ ->
              Pmem.Store.set_i64 s addr (Int64.of_int v);
              Bytes.set_int64_le model addr (Int64.of_int v))
        writes;
      let ok = ref true in
      List.iter
        (fun (addr, _) ->
          if Pmem.Store.get_i64 s addr <> Bytes.get_int64_le model addr then ok := false)
        writes;
      !ok)

let test_xpbuffer_bounds_bandwidth () =
  let lat = Pmem.Latency.default in
  let wpq = Pmem.Xpbuffer.create lat in
  (* Hammer it far above the drain rate: completions must fall behind
     arrival times by at least the queueing discipline. *)
  let finish = ref 0 in
  let n = 10_000 in
  for i = 0 to n - 1 do
    let now = i * 10 (* 10 ns between flushes: oversubscribed *) in
    finish := Pmem.Xpbuffer.admit wpq ~now ~media_ns:lat.Pmem.Latency.rand_flush_ns
  done;
  (* Sustained throughput can't beat media_ns / parallelism per line. *)
  let min_duration = n * lat.Pmem.Latency.rand_flush_ns / lat.Pmem.Latency.media_parallelism in
  Alcotest.(check bool) "bandwidth bound holds" true (!finish * 10 >= min_duration * 9);
  Alcotest.(check bool) "stalls recorded" true (Pmem.Xpbuffer.stall_time wpq > 0)

let test_smootherstep_decay_limit () =
  Alcotest.(check bool) "limit shrinks over time" true
    (Support.Smootherstep.limit ~total:1000 ~elapsed_fraction:0.8
    < Support.Smootherstep.limit ~total:1000 ~elapsed_fraction:0.2)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    QCheck_alcotest.to_alcotest prop_rng_bounds;
    QCheck_alcotest.to_alcotest prop_rng_shuffle_is_permutation;
    Alcotest.test_case "lock serializes" `Quick test_lock_serializes;
    Alcotest.test_case "scheduler steps min clock" `Quick test_scheduler_min_clock;
    Alcotest.test_case "scheduler seeded pick rule" `Quick test_scheduler_seeded;
    Alcotest.test_case "store straddles chunks" `Quick test_store_straddling;
    QCheck_alcotest.to_alcotest prop_store_model;
    Alcotest.test_case "xpbuffer bounds bandwidth" `Quick test_xpbuffer_bounds_bandwidth;
    Alcotest.test_case "smootherstep decay limit" `Quick test_smootherstep_decay_limit;
  ]
