(* Baseline allocators: functional correctness of every knob set, plus
   the behavioural signatures the figures rely on. *)

let all_knobs =
  Baselines.Knobs.[ pmdk; nvm_malloc; pallocator; makalu; ralloc; jemalloc; tcmalloc ]

let mk knobs =
  Baselines.Bengine.instance ~knobs ~threads:2 ~dev_size:(128 * 1024 * 1024)
    ~root_slots:8192 ()

let test_alloc_free_all () =
  List.iter
    (fun knobs ->
      let inst = mk knobs in
      let open Alloc_api.Instance in
      let seen = Hashtbl.create 64 in
      for i = 0 to 499 do
        let size = 16 + (8 * (i mod 60)) in
        let addr = inst.malloc ~tid:(i mod 2) ~size ~dest:(inst.root i) in
        Alcotest.(check bool)
          (Printf.sprintf "%s unique %d" inst.name i)
          false (Hashtbl.mem seen addr);
        Hashtbl.add seen addr ()
      done;
      for i = 0 to 499 do
        inst.free ~tid:((i + 1) mod 2) ~dest:(inst.root i)
      done;
      (* Reuse after free. *)
      for i = 0 to 99 do
        ignore (inst.malloc ~tid:0 ~size:64 ~dest:(inst.root i))
      done)
    all_knobs

let test_large_objects () =
  List.iter
    (fun knobs ->
      let inst = mk knobs in
      let open Alloc_api.Instance in
      let a = inst.malloc ~tid:0 ~size:(100 * 1024) ~dest:(inst.root 0) in
      let b = inst.malloc ~tid:0 ~size:(3 * 1024 * 1024) ~dest:(inst.root 1) in
      Alcotest.(check bool) "disjoint" true (b >= a + (100 * 1024) || a >= b + (3 * 1024 * 1024));
      inst.free ~tid:0 ~dest:(inst.root 0);
      inst.free ~tid:0 ~dest:(inst.root 1))
    [ Baselines.Knobs.pmdk; Baselines.Knobs.makalu; Baselines.Knobs.jemalloc ]

let test_volatile_never_flushes () =
  let inst = mk Baselines.Knobs.jemalloc in
  let open Alloc_api.Instance in
  for i = 0 to 199 do
    ignore (inst.malloc ~tid:0 ~size:64 ~dest:(inst.root i))
  done;
  Alcotest.(check int) "no flushes" 0 (Pmem.Stats.get (Pmem.Device.stats inst.dev) Flushes)

let test_reflush_signatures () =
  (* PMDK's commit marks guarantee reflushes; sequential bitmaps too. *)
  let ratio knobs =
    let inst = mk knobs in
    let open Alloc_api.Instance in
    for i = 0 to 199 do
      ignore (inst.malloc ~tid:0 ~size:64 ~dest:(inst.root i))
    done;
    Pmem.Stats.ratio (Pmem.Device.stats inst.dev) Reflushes Flushes
  in
  Alcotest.(check bool) "pmdk reflush-heavy" true (ratio Baselines.Knobs.pmdk > 0.5);
  Alcotest.(check bool) "nvm_malloc reflush-heavy" true (ratio Baselines.Knobs.nvm_malloc > 0.4);
  Alcotest.(check bool) "makalu reflushes" true (ratio Baselines.Knobs.makalu > 0.3)

let test_recovery_model_ordering () =
  (* Build identical small heaps; the modelled recovery times must obey
     the paper's ordering: nvm_malloc < PMDK (WAL-only vs full scan) and
     Ralloc < Makalu (partial vs conservative GC). *)
  let time knobs =
    let inst = mk knobs in
    let open Alloc_api.Instance in
    for i = 0 to 999 do
      ignore (inst.malloc ~tid:0 ~size:96 ~dest:(inst.root i))
    done;
    inst.recover ()
  in
  let t_nvm = time Baselines.Knobs.nvm_malloc in
  let t_pmdk = time Baselines.Knobs.pmdk in
  let t_ralloc = time Baselines.Knobs.ralloc in
  let t_makalu = time Baselines.Knobs.makalu in
  Alcotest.(check bool) "nvm < pmdk" true (t_nvm < t_pmdk);
  Alcotest.(check bool) "ralloc < makalu" true (t_ralloc < t_makalu)

let test_hoarding_signature () =
  (* Makalu hoards empty slabs; others return them. *)
  let peak knobs =
    let inst = mk knobs in
    let open Alloc_api.Instance in
    for round = 0 to 3 do
      ignore round;
      for i = 0 to 1999 do
        ignore (inst.malloc ~tid:0 ~size:4096 ~dest:(inst.root i))
      done;
      for i = 0 to 1999 do
        inst.free ~tid:0 ~dest:(inst.root i)
      done
    done;
    inst.mapped_bytes ()
  in
  Alcotest.(check bool) "makalu retains more" true
    (peak Baselines.Knobs.makalu >= peak Baselines.Knobs.nvm_malloc)

let suite =
  [
    Alcotest.test_case "alloc/free on every baseline" `Quick test_alloc_free_all;
    Alcotest.test_case "large objects" `Quick test_large_objects;
    Alcotest.test_case "volatile allocators never flush" `Quick test_volatile_never_flushes;
    Alcotest.test_case "reflush signatures" `Quick test_reflush_signatures;
    Alcotest.test_case "recovery-model ordering" `Quick test_recovery_model_ordering;
    Alcotest.test_case "hoarding signature" `Quick test_hoarding_signature;
  ]
