type t = {
  alloc : string;
  seed : int;
  ops : int;
  threads : int;
  crash : int option;
  sched : int option;
}

let to_string t =
  Printf.sprintf "alloc=%s seed=%d ops=%d threads=%d crash=%s%s" t.alloc t.seed t.ops t.threads
    (match t.crash with None -> "-" | Some n -> string_of_int n)
    (match t.sched with None -> "" | Some n -> Printf.sprintf " sched=%d" n)

let of_string s =
  let ( let* ) = Result.bind in
  let* f = Support.Search.fields s in
  let* alloc = Support.Search.field f "alloc" in
  let* seed = Support.Search.int_field f "seed" in
  let* ops = Support.Search.int_field f "ops" in
  let* threads = Support.Search.int_field f "threads" in
  let* crash = Support.Search.dash_int_field f "crash" in
  (* Optional, so every repro line printed before seeded scheduling
     existed still parses (as a min-clock scenario). *)
  let* sched = Support.Search.opt_int_field f "sched" in
  if ops < 1 then Error "ops must be >= 1"
  else if threads < 1 then Error "threads must be >= 1"
  else if (match crash with Some n -> n < 1 | None -> false) then Error "crash must be >= 1"
  else Ok { alloc; seed; ops; threads; crash; sched }

let shrink_candidates t =
  Support.Search.dedup ~key:to_string t
    [
      { t with crash = None };
      (match t.crash with Some n when n > 1 -> { t with crash = Some (n / 2) } | _ -> t);
      (match t.crash with Some n when n > 1 -> { t with crash = Some (n - 1) } | _ -> t);
      { t with ops = max 1 (t.ops / 2) };
      { t with ops = max 1 (t.ops - (t.ops / 4)) };
      { t with ops = max 1 (t.ops - 1) };
      { t with threads = max 1 (t.threads / 2) };
      { t with threads = max 1 (t.threads - 1) };
    ]

(* --- generator ------------------------------------------------------------- *)

type op = Alloc of { slot : int; size : int } | Free of { owner : int; slot : int }

let slots_per_thread = 256

(* Sizes straddling size-class boundaries: exact class sizes, one over,
   one under, down to the smallest class and up to the 16 KB slab/extent
   boundary. *)
let boundary_sizes =
  [| 1; 8; 15; 16; 17; 24; 32; 33; 48; 64; 65; 96; 120; 128; 136; 160; 192; 256; 257; 512;
     768; 1000; 1024; 2048; 4000; 4096; 8192; 12288; 16383; 16384 |]

let large_sizes = [| 16385; 17 * 1024; 40 * 1024; 65 * 1024 |]

(* Morph pressure wants dense fill in one class, then a sparse survivor
   pattern, then demand in a different class (cf. test_morph). *)
let morph_pairs = [| (64, 192); (128, 96); (256, 520); (48, 160) |]

let generate t ~large_ok =
  let quota tid = (t.ops / t.threads) + if tid = 0 then t.ops mod t.threads else 0 in
  Array.init t.threads (fun tid ->
      (* Distinct, deterministic per-thread streams from one scenario
         seed: splitmix-style tid mixing. *)
      let rng = Sim.Rng.create (t.seed + ((tid + 1) * 0x9E3779B9)) in
      let quota = quota tid in
      let out = ref [] in
      let n = ref 0 in
      let emit op =
        if !n < quota then begin
          out := op :: !out;
          incr n
        end
      in
      let my_slot () = Sim.Rng.int rng slots_per_thread in
      let small () = boundary_sizes.(Sim.Rng.int rng (Array.length boundary_sizes)) in
      let churn () =
        for _ = 1 to 16 do
          let slot = my_slot () in
          if Sim.Rng.int rng 10 < 6 then emit (Alloc { slot; size = small () })
          else emit (Free { owner = tid; slot })
        done
      in
      (* Overflow the tcache: a run of allocations in one class followed
         by FIFO-order frees (LIFO would bounce off the tcache top). *)
      let tcache_burst () =
        let size = small () in
        let base = Sim.Rng.int rng (slots_per_thread - 24) in
        for i = 0 to 23 do
          emit (Alloc { slot = base + i; size })
        done;
        for i = 0 to 23 do
          emit (Free { owner = tid; slot = base + i })
        done
      in
      let morph_churn () =
        let size_a, size_b = morph_pairs.(Sim.Rng.int rng (Array.length morph_pairs)) in
        let base = Sim.Rng.int rng (slots_per_thread - 40) in
        for i = 0 to 31 do
          emit (Alloc { slot = base + i; size = size_a })
        done;
        for i = 0 to 31 do
          if i mod 8 <> 0 then emit (Free { owner = tid; slot = base + i })
        done;
        for i = 32 to 39 do
          emit (Alloc { slot = base + i; size = size_b })
        done
      in
      let cross_free () =
        for _ = 1 to 8 do
          emit (Free { owner = Sim.Rng.int rng t.threads; slot = Sim.Rng.int rng slots_per_thread })
        done
      in
      let large_mix () =
        for _ = 1 to 8 do
          let slot = my_slot () in
          if Sim.Rng.bool rng then
            emit (Alloc { slot; size = large_sizes.(Sim.Rng.int rng (Array.length large_sizes)) })
          else emit (Free { owner = tid; slot })
        done
      in
      while !n < quota do
        let w = Sim.Rng.int rng 11 in
        if w < 4 then churn ()
        else if w < 6 then tcache_burst ()
        else if w < 8 then morph_churn ()
        else if w < 10 then if t.threads > 1 then cross_free () else churn ()
        else if large_ok then large_mix ()
        else churn ()
      done;
      Array.of_list (List.rev !out))
