(* Simulation kernel: rng determinism, clock/lock semantics, the
   min-clock scheduler, the chunked store, and the XPBuffer bound. *)

let test_rng_determinism () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next_int64 a) (Sim.Rng.next_int64 b)
  done

(* The splitmix64 stream is pinned: these are the values every seed-
   driven experiment, checked interleaving and fuzz plan rests on. *)
let test_rng_stream () =
  let t = Sim.Rng.create 42 in
  List.iter
    (fun v -> Alcotest.(check int64) "seed 42" v (Sim.Rng.next_int64 t))
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ];
  let t = Sim.Rng.create 7 in
  Alcotest.(check int) "int" 621 (Sim.Rng.int t 1000);
  Alcotest.(check int) "int_in" 6 (Sim.Rng.int_in t 5 9);
  Alcotest.(check (float 0.0)) "float" 0x1.203e50a0e95d7p+1 (Sim.Rng.float t 2.5);
  Alcotest.(check bool) "bool" true (Sim.Rng.bool t)

(* A draw that returns an int or a bool allocates nothing. *)
let test_rng_allocation () =
  let t = Sim.Rng.create 1 in
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.0)) "int" 0.0 (words (fun () -> Sim.Rng.int t 1000));
  Alcotest.(check (float 0.0)) "bool" 0.0 (words (fun () -> Sim.Rng.bool t));
  Alcotest.(check (float 0.0)) "chance" 0.0 (words (fun () -> Sim.Rng.chance t 0.2))

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
  let s = Pmem.Device.Store.create ~size:(4 * Pmem.Device.Store.chunk_bytes) in
  (* Write an int64 across a chunk boundary. *)
  let addr = Pmem.Device.Store.chunk_bytes - 3 in
  Pmem.Device.Store.set_i64 s addr 0x1122334455667788L;
  Alcotest.(check int64) "straddling i64" 0x1122334455667788L (Pmem.Device.Store.get_i64 s addr);
  Alcotest.(check int) "byte on far side" 0x11 (Pmem.Device.Store.get_u8 s (addr + 7));
  (* Unwritten chunks read as zero. *)
  Alcotest.(check int64) "lazy zero" 0L (Pmem.Device.Store.get_i64 s (3 * Pmem.Device.Store.chunk_bytes))

(* Two stores against two sparse byte models. The stores are larger than
   the 512-slot table a store starts with (8 MiB of granules): 1100
   granules, less three lines, so the last granule is partial. Addresses
   cluster within 24 bytes of granule boundaries — at the start, around
   the end of the first table, past it, at the doubled table's end and at
   the store's last bytes — so word accesses and ranges straddle
   granules, land in absent ones and past the table, and [copy_line]
   runs between a grown store and an ungrown one. Besides the bytes, the
   model tracks which granules a write must materialise (a zero [fill]
   and a copy from an absent granule materialise none), and
   [allocated_chunks] is checked against it after every op as well as at
   the end. *)
type store_op =
  | Set_u8 of int * int * int (* store, addr, value *)
  | Set_u16 of int * int * int
  | Set_u32 of int * int * int
  | Set_int of int * int * int
  | Set_i64 of int * int * int64
  | Write_bytes of int * int * int * int (* store, addr, length, content seed *)
  | Fill of int * int * int * char
  | Copy_line of int * int (* source store, line *)

let store_size = (1100 * Pmem.Device.Store.chunk_bytes) - (3 * Pmem.Cacheline.size)

(* Granule boundaries the addresses cluster around; the last is the end
   of the store. *)
let store_centres =
  let g = Pmem.Device.Store.chunk_bytes in
  List.map (fun k -> k * g) [ 0; 1; 2; 511; 512; 513; 700; 1023; 1024; 1099 ] @ [ store_size ]

(* A sparse byte model: granule index -> its bytes, absent = zeros. *)
module Sparse = struct
  let g = Pmem.Device.Store.chunk_bytes

  let get m a =
    match Hashtbl.find_opt m (a / g) with Some b -> Bytes.get_uint8 b (a mod g) | None -> 0

  let set m a v =
    match Hashtbl.find_opt m (a / g) with
    | Some b -> Bytes.set_uint8 b (a mod g) v
    | None when v = 0 -> ()
    | None ->
        let b = Bytes.make g '\000' in
        Hashtbl.replace m (a / g) b;
        Bytes.set_uint8 b (a mod g) v

  (* [n] bytes of [v] at [a], little-endian. *)
  let set_le m a n v = for i = 0 to n - 1 do set m (a + i) ((v lsr (8 * i)) land 0xFF) done
  let get_le m a n = List.fold_left (fun acc i -> acc lor (get m (a + i) lsl (8 * i))) 0 (List.init n Fun.id)

  let set_i64 m a v =
    for i = 0 to 7 do
      set m (a + i) (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
    done

  let get_i64 m a =
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get m (a + i)))
    done;
    !v

  let sub m a n = Bytes.init n (fun i -> Char.chr (get m (a + i)))

  (* The first [n] bytes of granule [gi]. *)
  let granule m gi n =
    match Hashtbl.find_opt m gi with Some b -> Bytes.sub b 0 n | None -> Bytes.make n '\000'
end

let prop_store_model =
  let open QCheck in
  let module S = Pmem.Device.Store in
  let g = S.chunk_bytes and size = store_size in
  let addr width =
    Gen.(
      map3
        (fun c d u ->
          let a = match u with Some a -> a | None -> c + d in
          max 0 (min (size - width) a))
        (oneofl store_centres) (int_range (-24) 24)
        (opt ~ratio:0.2 (int_range 0 (size - 1))))
  in
  let op =
    Gen.(
      int_range 0 1 >>= fun st ->
      let len = int_range 0 80 in
      oneof
        [
          map2 (fun a v -> Set_u8 (st, a, v)) (addr 1) (int_range 0 0xFF);
          map2 (fun a v -> Set_u16 (st, a, v)) (addr 2) (int_range 0 0xFFFF);
          map2 (fun a v -> Set_u32 (st, a, v)) (addr 4) (int_range 0 0xFFFFFFFF);
          map2 (fun a v -> Set_int (st, a, v)) (addr 8) int;
          map2 (fun a v -> Set_i64 (st, a, v)) (addr 8) ui64;
          (len >>= fun n -> map2 (fun a seed -> Write_bytes (st, a, n, seed)) (addr n) nat);
          ( len >>= fun n ->
            map2 (fun a c -> Fill (st, a, n, c)) (addr n) (oneofl [ '\000'; '\000'; '\xA5' ]) );
          map (fun a -> Copy_line (st, a / Pmem.Cacheline.size)) (addr Pmem.Cacheline.size);
        ])
  in
  let print = function
    | Set_u8 (s, a, v) -> Printf.sprintf "set_u8 s%d %d %d" s a v
    | Set_u16 (s, a, v) -> Printf.sprintf "set_u16 s%d %d %d" s a v
    | Set_u32 (s, a, v) -> Printf.sprintf "set_u32 s%d %d %d" s a v
    | Set_int (s, a, v) -> Printf.sprintf "set_int s%d %d %d" s a v
    | Set_i64 (s, a, v) -> Printf.sprintf "set_i64 s%d %d %Ld" s a v
    | Write_bytes (s, a, n, seed) -> Printf.sprintf "write_bytes s%d %d len=%d seed=%d" s a n seed
    | Fill (s, a, n, c) -> Printf.sprintf "fill s%d %d len=%d %C" s a n c
    | Copy_line (s, l) -> Printf.sprintf "copy_line src=s%d line=%d" s l
  in
  Test.make ~name:"store agrees with a Bytes model" ~count:200
    (make ~print:(Print.list print) Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let stores = Array.init 2 (fun _ -> S.create ~size) in
      let models = Array.init 2 (fun _ -> Hashtbl.create 8) in
      let granules = Array.init 2 (fun _ -> Hashtbl.create 8) in
      let touch st a n =
        if n > 0 then
          for gi = a / g to (a + n - 1) / g do
            Hashtbl.replace granules.(st) gi ()
          done
      in
      let counts_agree () =
        S.allocated_chunks stores.(0) = Hashtbl.length granules.(0)
        && S.allocated_chunks stores.(1) = Hashtbl.length granules.(1)
      in
      let apply = function
        | Set_u8 (st, a, v) ->
            S.set_u8 stores.(st) a v;
            Sparse.set models.(st) a v;
            touch st a 1
        | Set_u16 (st, a, v) ->
            S.set_u16 stores.(st) a v;
            Sparse.set_le models.(st) a 2 v;
            touch st a 2
        | Set_u32 (st, a, v) ->
            S.set_u32 stores.(st) a v;
            Sparse.set_le models.(st) a 4 v;
            touch st a 4
        | Set_int (st, a, v) ->
            S.set_int stores.(st) a v;
            Sparse.set_i64 models.(st) a (Int64.of_int v);
            touch st a 8
        | Set_i64 (st, a, v) ->
            S.set_i64 stores.(st) a v;
            Sparse.set_i64 models.(st) a v;
            touch st a 8
        | Write_bytes (st, a, n, seed) ->
            let b = Bytes.init n (fun i -> Char.chr ((seed + (i * 7)) land 0xFF)) in
            S.write_bytes stores.(st) a b;
            Bytes.iteri (fun i c -> Sparse.set models.(st) (a + i) (Char.code c)) b;
            touch st a n
        | Fill (st, a, n, c) ->
            S.fill stores.(st) a n c;
            for i = 0 to n - 1 do
              Sparse.set models.(st) (a + i) (Char.code c)
            done;
            if c <> '\000' then touch st a n
        | Copy_line (src, line) ->
            let dst = 1 - src and a = line * Pmem.Cacheline.size in
            S.copy_line ~src:stores.(src) ~dst:stores.(dst) line;
            for i = 0 to Pmem.Cacheline.size - 1 do
              Sparse.set models.(dst) (a + i) (Sparse.get models.(src) (a + i))
            done;
            if Hashtbl.mem granules.(src) (a / g) then touch dst a 1
      in
      let agrees st =
        let s = stores.(st) and m = models.(st) in
        let word_ok a =
          let i64_ok () =
            let w = Sparse.get_i64 m a in
            S.get_i64 s a = w
            && (Int64.of_int (Int64.to_int w) <> w || S.get_int s a = Int64.to_int w)
          in
          S.get_u8 s a = Sparse.get m a
          && (a > size - 2 || S.get_u16 s a = Sparse.get_le m a 2)
          && (a > size - 4 || S.get_u32 s a = Sparse.get_le m a 4)
          && (a > size - 8 || i64_ok ())
        in
        let near_centres =
          List.for_all
            (fun c ->
              let words = ref true in
              for a = max 0 (c - 32) to min (size - 1) (c + 32) do
                if not (word_ok a) then words := false
              done;
              !words
              && List.for_all
                   (fun d ->
                     let a = max 0 (c - d) in
                     let n = min (2 * d) (size - a) in
                     Bytes.equal (S.read_bytes s a n) (Sparse.sub m a n))
                   [ 1; 3; 8; 40 ])
            store_centres
        in
        (* Every granule written or modelled reads back whole. *)
        let seen = Hashtbl.copy granules.(st) in
        Hashtbl.iter (fun gi _ -> Hashtbl.replace seen gi ()) m;
        near_centres
        && Hashtbl.fold
             (fun gi () ok ->
               let a = gi * g in
               let n = min g (size - a) in
               ok && Bytes.equal (S.read_bytes s a n) (Sparse.granule m gi n))
             seen true
      in
      List.for_all
        (fun o ->
          apply o;
          counts_agree ())
        ops
      && agrees 0 && agrees 1)

let test_xpbuffer_bounds_bandwidth () =
  let lat = Pmem.Latency.default in
  let wpq = Pmem.Device.Xpbuffer.create lat in
  (* Hammer it far above the drain rate: completions must fall behind
     arrival times by at least the queueing discipline. *)
  let finish = ref 0 in
  let n = 10_000 in
  for i = 0 to n - 1 do
    let now = i * 10 (* 10 ns between flushes: oversubscribed *) in
    finish := Pmem.Device.Xpbuffer.admit wpq ~now ~media_ns:lat.Pmem.Latency.rand_flush_ns
  done;
  (* Sustained throughput can't beat media_ns / parallelism per line. *)
  let min_duration = n * lat.Pmem.Latency.rand_flush_ns / lat.Pmem.Latency.media_parallelism in
  Alcotest.(check bool) "bandwidth bound holds" true (!finish * 10 >= min_duration * 9);
  Alcotest.(check bool) "stalls recorded" true (Pmem.Device.Xpbuffer.stall_time wpq > 0)

let test_smootherstep_decay_limit () =
  Alcotest.(check bool) "limit shrinks over time" true
    (Support.Smootherstep.limit ~total:1000 ~elapsed_fraction:0.8
    < Support.Smootherstep.limit ~total:1000 ~elapsed_fraction:0.2)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng stream pinned" `Quick test_rng_stream;
    Alcotest.test_case "rng draws allocate nothing" `Quick test_rng_allocation;
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
