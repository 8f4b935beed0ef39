(* Large allocator: best-fit, split/coalesce, decay, huge path, both
   bookkeeping modes. Exercised through a minimal heap. *)

open Nvalloc_core

let mib = 1024 * 1024

(* Immediate decay windows would perturb most tests: by default keep them
   long. [booklog_chunks] sizes the bookkeeping log (at most 256). *)
let mk ?(log_bookkeeping = true) ?(decay_interval_ns = 1_000_000_000_000) ?(booklog_chunks = 256)
    () =
  let config =
    {
      Config.log_default with
      Config.arenas = 1;
      root_slots = 1024;
      booklog_chunks = 256;
      wal_entries = 1024;
      log_bookkeeping;
      decay_interval_ns;
      decay_window_ns = 10 * decay_interval_ns;
    }
  in
  let dev = Pmem.Device.create ~size:(256 * mib) () in
  let clock = Sim.Clock.create () in
  let heap = Heap.init dev config in
  Heap.set_state heap clock Heap.Running;
  let large =
    Extent.create heap ~mode:
      (if log_bookkeeping then
         Extent.Logged
           (Booklog.create dev ~base:(Heap.booklog_base heap ~arena:0) ~chunks:booklog_chunks
              ~interleave:true)
       else Extent.In_place)
      ~region_lock:(Sim.Lock.create ())
      ~on_new_extent:(fun _ -> ())
      ~on_drop_extent:(fun _ -> ())
  in
  (dev, clock, heap, large)

let test_malloc_free_roundtrip () =
  let _, clock, _, large = mk () in
  let v = Extent.malloc large clock ~size:65536 ~kind:Booklog.Extent in
  Alcotest.(check int) "rounded size" 65536 v.Extent.size;
  Alcotest.(check bool) "activated" true (v.Extent.state = Extent.Activated);
  Alcotest.(check int) "activated bytes" 65536 (Extent.activated_bytes large);
  Extent.free large clock v;
  Alcotest.(check int) "nothing activated" 0 (Extent.activated_bytes large);
  Alcotest.(check bool) "reclaimed" true (Extent.reclaimed_bytes large > 0)

let test_best_fit_reuse () =
  let _, clock, _, large = mk () in
  let a = Extent.malloc large clock ~size:(128 * 1024) ~kind:Booklog.Extent in
  let b = Extent.malloc large clock ~size:(64 * 1024) ~kind:Booklog.Extent in
  let addr_a = a.Extent.addr in
  Extent.free large clock a;
  (* A 100 KiB request best-fits the freed 128 KiB hole, not fresh space. *)
  let c = Extent.malloc large clock ~size:(100 * 1024) ~kind:Booklog.Extent in
  Alcotest.(check int) "reuses the hole" addr_a c.Extent.addr;
  Extent.free large clock b;
  Extent.free large clock c

let test_split_and_coalesce () =
  let _, clock, _, large = mk () in
  let vs =
    List.init 8 (fun _ -> Extent.malloc large clock ~size:(64 * 1024) ~kind:Booklog.Extent)
  in
  (* Contiguous carve-out from one region. *)
  let sorted = List.sort compare (List.map (fun v -> v.Extent.addr) vs) in
  let rec contiguous = function
    | a :: (b :: _ as rest) -> a + (64 * 1024) = b && contiguous rest
    | _ -> true
  in
  Alcotest.(check bool) "contiguous split" true (contiguous sorted);
  (* Free all: they coalesce back into one reclaimed extent covering the
     whole region data area. *)
  List.iter (fun v -> Extent.free large clock v) vs;
  let v = Extent.malloc large clock ~size:(512 * 1024) ~kind:Booklog.Extent in
  Alcotest.(check int) "coalesced space serves a big request" (List.hd sorted) v.Extent.addr

let test_huge_path () =
  let _, clock, heap, large = mk () in
  let before = Pmem.Dax.mapped_bytes (Heap.dax heap) in
  let v = Extent.malloc large clock ~size:(3 * mib) ~kind:Booklog.Extent in
  Alcotest.(check bool) "dedicated region mapped" true
    (Pmem.Dax.mapped_bytes (Heap.dax heap) >= before + (3 * mib));
  Extent.free large clock v;
  Alcotest.(check int) "returned to the OS" before (Pmem.Dax.mapped_bytes (Heap.dax heap))

let test_decay_releases_memory () =
  let config_decay = 1_000_000 (* 1 ms *) in
  let dev = Pmem.Device.create ~size:(256 * mib) () in
  let clock = Sim.Clock.create () in
  let config =
    {
      Config.log_default with
      Config.arenas = 1;
      root_slots = 1024;
      decay_interval_ns = config_decay;
      decay_window_ns = 4 * config_decay;
    }
  in
  let heap = Heap.init dev config in
  let large =
    Extent.create heap
      ~mode:
        (Extent.Logged
           (Booklog.create dev ~base:(Heap.booklog_base heap ~arena:0) ~chunks:256
              ~interleave:true))
      ~region_lock:(Sim.Lock.create ())
      ~on_new_extent:(fun _ -> ())
      ~on_drop_extent:(fun _ -> ())
  in
  let vs =
    List.init 4 (fun _ -> Extent.malloc large clock ~size:(512 * 1024) ~kind:Booklog.Extent)
  in
  List.iter (fun v -> Extent.free large clock v) vs;
  let mapped_full = Pmem.Dax.mapped_bytes (Heap.dax heap) in
  Alcotest.(check bool) "reclaimed memory still mapped" true (mapped_full > 0);
  (* Advance simulated time well past the decay window and tick. *)
  Sim.Clock.charge clock (20 * config_decay);
  Extent.decay_tick large clock;
  Sim.Clock.charge clock (20 * config_decay);
  Extent.decay_tick large clock;
  Alcotest.(check bool) "memory decayed"
    true
    (Pmem.Dax.mapped_bytes (Heap.dax heap) < mapped_full
    || Extent.retained_bytes large > 0)

let test_empty_page_release () =
  (* Page-descriptor grouping: when a region's last live extent dies and
     the frees coalesce back into one whole-page reclaimed extent, the
     next decay tick unmaps the region outright — without waiting for
     the retain window. *)
  let config_decay = 1_000_000 (* 1 ms *) in
  let dev = Pmem.Device.create ~size:(256 * mib) () in
  let clock = Sim.Clock.create () in
  let config =
    {
      Config.log_default with
      Config.arenas = 1;
      root_slots = 1024;
      decay_interval_ns = config_decay;
      decay_window_ns = 100 * config_decay;
    }
  in
  let heap = Heap.init dev config in
  let large =
    Extent.create heap
      ~mode:
        (Extent.Logged
           (Booklog.create dev ~base:(Heap.booklog_base heap ~arena:0) ~chunks:256
              ~interleave:true))
      ~region_lock:(Sim.Lock.create ())
      ~on_new_extent:(fun _ -> ())
      ~on_drop_extent:(fun _ -> ())
  in
  let before = Pmem.Dax.mapped_bytes (Heap.dax heap) in
  (* Eight 512 KiB extents carve up exactly one 4 MiB region. *)
  let vs =
    List.init 8 (fun _ -> Extent.malloc large clock ~size:(512 * 1024) ~kind:Booklog.Extent)
  in
  Alcotest.(check int) "one region mapped" 1 (Extent.page_count large);
  (match Extent.page_of_addr large (List.hd vs).Extent.addr with
  | None -> Alcotest.fail "page descriptor missing"
  | Some pd ->
      Alcotest.(check int) "descriptor counts live extents" 8 pd.Extent.activated_count;
      Alcotest.(check bool) "not dedicated" false pd.Extent.dedicated);
  List.iter (fun v -> Extent.free large clock v) vs;
  (* Tick just past the decay interval: the retain window (100 ms) is
     nowhere near over, yet the fully-free page goes back to the OS. *)
  Sim.Clock.charge clock (2 * config_decay);
  Extent.decay_tick large clock;
  Alcotest.(check int) "empty region unmapped" before
    (Pmem.Dax.mapped_bytes (Heap.dax heap));
  Alcotest.(check int) "page descriptor dropped" 0 (Extent.page_count large);
  Alcotest.(check int) "no reclaimed bytes left" 0 (Extent.reclaimed_bytes large)

let test_partial_page_stays_mapped () =
  (* The release is gated on the descriptor's live count and the extent
     spanning the whole data area: one surviving extent pins the region. *)
  let config_decay = 1_000_000 in
  let dev = Pmem.Device.create ~size:(256 * mib) () in
  let clock = Sim.Clock.create () in
  let config =
    {
      Config.log_default with
      Config.arenas = 1;
      root_slots = 1024;
      decay_interval_ns = config_decay;
      decay_window_ns = 100 * config_decay;
    }
  in
  let heap = Heap.init dev config in
  let large =
    Extent.create heap
      ~mode:
        (Extent.Logged
           (Booklog.create dev ~base:(Heap.booklog_base heap ~arena:0) ~chunks:256
              ~interleave:true))
      ~region_lock:(Sim.Lock.create ())
      ~on_new_extent:(fun _ -> ())
      ~on_drop_extent:(fun _ -> ())
  in
  let vs =
    List.init 8 (fun _ -> Extent.malloc large clock ~size:(512 * 1024) ~kind:Booklog.Extent)
  in
  let survivor, rest =
    match vs with v :: rest -> (v, rest) | [] -> assert false
  in
  List.iter (fun v -> Extent.free large clock v) rest;
  Sim.Clock.charge clock (2 * config_decay);
  Extent.decay_tick large clock;
  Alcotest.(check int) "region still mapped" 1 (Extent.page_count large);
  (match Extent.page_of_addr large survivor.Extent.addr with
  | None -> Alcotest.fail "page descriptor missing"
  | Some pd -> Alcotest.(check int) "one live extent" 1 pd.Extent.activated_count);
  (* Freeing the survivor leaves the page split between a reclaimed head
     and a retained tail (coalescing is per-state); once the full decay
     window passes, the head decommits, coalesces with the tail into one
     spanning retained extent, and the page releases in the same tick. *)
  Extent.free large clock survivor;
  Sim.Clock.charge clock (300 * config_decay);
  Extent.decay_tick large clock;
  Alcotest.(check int) "now released" 0 (Extent.page_count large)

(* Every live VEH holds the descriptor of the page it lies on, and every
   mapped page counts exactly its activated extents. *)
let pages_consistent large live =
  List.for_all
    (fun v ->
      v.Extent.state = Extent.Activated
      &&
      match Extent.page_of_addr large v.Extent.addr with
      | Some pd -> pd == v.Extent.page
      | None -> false)
    live
  &&
  let ok = ref true in
  Extent.iter_pages large (fun pd ->
      let n = List.length (List.filter (fun v -> v.Extent.page == pd) live) in
      if n <> pd.Extent.activated_count then ok := false);
  !ok

let prop_no_overlap_model =
  (* Random alloc/free sequences never hand out overlapping live extents
     and keep the page descriptors exact (model-based). Decay runs every
     millisecond of simulated time and the ops advance the clock, so
     extents are retained, coalesce across states and whole pages go back
     to the OS along the way; a final drain frees everything and waits
     out the retain window. *)
  let open QCheck in
  Test.make ~name:"extent allocations never overlap (model)" ~count:40
    (make
       Gen.(
         pair bool
           (list_size (int_range 1 120)
              (pair (int_range 16 512) (int_range 0 1000)))))
    (fun (log_bookkeeping, ops) ->
      let ms = 1_000_000 in
      let _, clock, _, large = mk ~log_bookkeeping ~decay_interval_ns:ms () in
      let live = ref [] in
      let ok = ref true in
      let check () = if not (pages_consistent large !live) then ok := false in
      List.iter
        (fun (kib, sel) ->
          Sim.Clock.charge clock (sel mod 5 * ms / 2);
          if List.length !live > 20 && sel mod 2 = 0 then begin
            let idx = sel mod List.length !live in
            let v = List.nth !live idx in
            live := List.filteri (fun i _ -> i <> idx) !live;
            Extent.free large clock v
          end
          else begin
            let v = Extent.malloc large clock ~size:(kib * 1024) ~kind:Booklog.Extent in
            List.iter
              (fun u ->
                if
                  v.Extent.addr < u.Extent.addr + u.Extent.size
                  && u.Extent.addr < v.Extent.addr + v.Extent.size
                then ok := false)
              !live;
            live := v :: !live
          end;
          check ())
        ops;
      List.iter
        (fun v ->
          Sim.Clock.charge clock (ms / 2);
          live := List.filter (fun u -> u != v) !live;
          Extent.free large clock v;
          check ())
        !live;
      for _ = 1 to 3 do
        Sim.Clock.charge clock (20 * ms);
        Extent.decay_tick large clock;
        check ()
      done;
      !ok && Extent.page_count large = 0 && Extent.reclaimed_bytes large = 0)

(* Slow GC of the bookkeeping log rewrites every live entry under a new
   reference; the extent layer must re-point each activated VEH. A
   16-chunk log trips the slow-GC threshold (80% of chunks in use) when
   every chunk keeps a few long-lived entries that fast GC cannot retire. *)
let test_slow_gc_remaps_log_refs () =
  let dev, clock, heap, large = mk ~booklog_chunks:16 () in
  let log = Option.get (Extent.booklog large) in
  let pinned = ref [] and churn = Queue.create () in
  for i = 1 to 1500 do
    let v = Extent.malloc large clock ~size:65536 ~kind:Booklog.Extent in
    if i mod 10 = 0 then pinned := v :: !pinned else Queue.add v churn;
    if Queue.length churn > 8 then Extent.free large clock (Queue.take churn)
  done;
  Alcotest.(check bool) "slow GC ran" true (Booklog.slow_gc_runs log > 0);
  let live = !pinned @ List.of_seq (Queue.to_seq churn) in
  let scanned = Booklog.scan dev ~base:(Heap.booklog_base heap ~arena:0) ~interleave:true in
  List.iter
    (fun v ->
      match List.find_opt (fun s -> s.Booklog.ref_ = v.Extent.log_ref) scanned with
      | Some s ->
          Alcotest.(check (pair int int))
            "log_ref scans back to the extent" (v.Extent.addr, v.Extent.size)
            (s.Booklog.addr, s.Booklog.size)
      | None -> Alcotest.failf "log_ref %d of extent %d not live" v.Extent.log_ref v.Extent.addr)
    live;
  Alcotest.(check int) "one live entry per extent" (List.length live) (List.length scanned);
  List.iter (fun v -> Extent.free large clock v) live;
  Alcotest.(check int) "no live entries left" 0
    (List.length (Booklog.scan dev ~base:(Heap.booklog_base heap ~arena:0) ~interleave:true));
  Alcotest.(check int) "nothing activated" 0 (Extent.activated_bytes large)

let suite =
  [
    Alcotest.test_case "malloc/free roundtrip" `Quick test_malloc_free_roundtrip;
    Alcotest.test_case "best-fit reuses holes" `Quick test_best_fit_reuse;
    Alcotest.test_case "split and coalesce" `Quick test_split_and_coalesce;
    Alcotest.test_case "huge allocations get own regions" `Quick test_huge_path;
    Alcotest.test_case "decay releases idle memory" `Quick test_decay_releases_memory;
    Alcotest.test_case "empty page released whole" `Quick test_empty_page_release;
    Alcotest.test_case "partial page stays mapped" `Quick test_partial_page_stays_mapped;
    Alcotest.test_case "slow GC re-points log refs" `Quick test_slow_gc_remaps_log_refs;
    QCheck_alcotest.to_alcotest prop_no_overlap_model;
  ]
