(* End-to-end allocator tests: alloc/free through the public API, clean
   shutdown + recovery, crash injection + recovery, both variants. *)

open Nvalloc_core

let small_config variant =
  let base = match variant with
    | `Log -> Config.log_default
    | `Gc -> Config.gc_default
  in
  { base with Config.arenas = 2; root_slots = 4096; booklog_chunks = 64; wal_entries = 1024 }

let mk ?(variant = `Log) () =
  let dev = Pmem.Device.create ~size:(64 * 1024 * 1024) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc.create ~config:(small_config variant) dev clock in
  (dev, clock, t)

let test_alloc_free_small () =
  let _, clock, t = mk () in
  let th = Nvalloc.thread t clock in
  let dest = Nvalloc.root_addr t 0 in
  let addr = Nvalloc.malloc_to t th ~size:64 ~dest in
  Alcotest.(check bool) "address in heap" true (addr >= Heap.heap_start (Nvalloc.heap t));
  Alcotest.(check int) "published" addr (Nvalloc.read_ptr t ~dest);
  Nvalloc.free_from t th ~dest;
  Alcotest.(check int) "dest cleared" 0 (Nvalloc.read_ptr t ~dest)

let test_alloc_free_large () =
  let _, clock, t = mk () in
  let th = Nvalloc.thread t clock in
  let dest = Nvalloc.root_addr t 0 in
  let addr = Nvalloc.malloc_to t th ~size:(300 * 1024) ~dest in
  Alcotest.(check int) "published" addr (Nvalloc.read_ptr t ~dest);
  Nvalloc.free_from t th ~dest;
  Alcotest.(check int) "dest cleared" 0 (Nvalloc.read_ptr t ~dest)

let test_distinct_addresses () =
  let _, clock, t = mk () in
  let th = Nvalloc.thread t clock in
  let n = 2000 in
  let seen = Hashtbl.create n in
  for i = 0 to n - 1 do
    let dest = Nvalloc.root_addr t i in
    let addr = Nvalloc.malloc_to t th ~size:48 ~dest in
    Alcotest.(check bool) (Printf.sprintf "unique %d" i) false (Hashtbl.mem seen addr);
    Hashtbl.add seen addr ()
  done;
  (* Free half, reallocate, still unique among live. *)
  for i = 0 to (n / 2) - 1 do
    Hashtbl.remove seen (Nvalloc.read_ptr t ~dest:(Nvalloc.root_addr t i));
    Nvalloc.free_from t th ~dest:(Nvalloc.root_addr t i)
  done;
  for i = 0 to (n / 2) - 1 do
    let addr = Nvalloc.malloc_to t th ~size:48 ~dest:(Nvalloc.root_addr t i) in
    Alcotest.(check bool) "no double allocation" false (Hashtbl.mem seen addr);
    Hashtbl.add seen addr ()
  done

let test_payload_integrity () =
  let dev, clock, t = mk () in
  let th = Nvalloc.thread t clock in
  let n = 500 in
  for i = 0 to n - 1 do
    let dest = Nvalloc.root_addr t i in
    let addr = Nvalloc.malloc_to t th ~size:32 ~dest in
    Pmem.Device.write_int64 dev addr (Int64.of_int (i * 7));
    Pmem.Device.flush dev clock Pmem.Stats.Data ~addr ~len:8
  done;
  for i = 0 to n - 1 do
    let addr = Nvalloc.read_ptr t ~dest:(Nvalloc.root_addr t i) in
    Alcotest.(check int64)
      (Printf.sprintf "payload %d" i)
      (Int64.of_int (i * 7))
      (Pmem.Device.read_int64 dev addr)
  done

let test_size_mix () =
  let _, clock, t = mk () in
  let th = Nvalloc.thread t clock in
  let rng = Sim.Rng.create 42 in
  let live = Hashtbl.create 64 in
  for i = 0 to 3000 do
    let slot = Sim.Rng.int rng 256 in
    let dest = Nvalloc.root_addr t slot in
    if Hashtbl.mem live slot then begin
      Nvalloc.free_from t th ~dest;
      Hashtbl.remove live slot
    end
    else begin
      let size =
        match Sim.Rng.int rng 4 with
        | 0 -> Sim.Rng.int_in rng 16 256
        | 1 -> Sim.Rng.int_in rng 256 4096
        | 2 -> Sim.Rng.int_in rng 4096 16384
        | _ -> Sim.Rng.int_in rng 16385 (256 * 1024)
      in
      ignore (Nvalloc.malloc_to t th ~size ~dest);
      Hashtbl.add live slot ()
    end;
    ignore i
  done;
  (* Free everything; mapped memory should decay back down over time. *)
  Hashtbl.iter (fun slot () -> Nvalloc.free_from t th ~dest:(Nvalloc.root_addr t slot)) live

let check_recovered_pointers t' n =
  for i = 0 to n - 1 do
    let addr = Nvalloc.read_ptr t' ~dest:(Nvalloc.root_addr t' i) in
    Alcotest.(check bool) (Printf.sprintf "root %d live" i) true (addr > 0)
  done

let test_shutdown_recover variant =
  let dev, clock, t = mk ~variant () in
  let th = Nvalloc.thread t clock in
  let n = 300 in
  for i = 0 to n - 1 do
    ignore (Nvalloc.malloc_to t th ~size:(32 + (8 * (i mod 30))) ~dest:(Nvalloc.root_addr t i))
  done;
  (* A couple of large ones. *)
  ignore (Nvalloc.malloc_to t th ~size:(128 * 1024) ~dest:(Nvalloc.root_addr t 1000));
  Nvalloc.exit_ t clock;
  let t', report = Nvalloc.recover ~config:(small_config variant) dev clock in
  Alcotest.(check bool) "clean shutdown detected" true (report.found_state = Heap.Shutdown);
  check_recovered_pointers t' n;
  (* The heap is usable after recovery: allocate and free everything. *)
  let th' = Nvalloc.thread t' clock in
  for i = 0 to n - 1 do
    Nvalloc.free_from t' th' ~dest:(Nvalloc.root_addr t' i)
  done;
  Nvalloc.free_from t' th' ~dest:(Nvalloc.root_addr t' 1000);
  for i = 0 to n - 1 do
    ignore (Nvalloc.malloc_to t' th' ~size:64 ~dest:(Nvalloc.root_addr t' i))
  done

let test_crash_recover variant =
  let dev, clock, t = mk ~variant () in
  let th = Nvalloc.thread t clock in
  let n = 200 in
  for i = 0 to n - 1 do
    ignore (Nvalloc.malloc_to t th ~size:64 ~dest:(Nvalloc.root_addr t i))
  done;
  (* Crash without shutdown: everything in CPU caches is lost. *)
  Pmem.Device.crash dev;
  let t', report = Nvalloc.recover ~config:(small_config variant) dev clock in
  Alcotest.(check bool) "unclean shutdown detected" true (report.found_state = Heap.Running);
  (* All published roots must still resolve to live blocks and be freeable. *)
  let th' = Nvalloc.thread t' clock in
  let live = ref 0 in
  for i = 0 to n - 1 do
    let addr = Nvalloc.read_ptr t' ~dest:(Nvalloc.root_addr t' i) in
    if addr > 0 then begin
      incr live;
      Nvalloc.free_from t' th' ~dest:(Nvalloc.root_addr t' i)
    end
  done;
  (* Publishing is the last step of malloc_to, so all roots persisted
     before the crash... but root flushes are synchronous: all survive. *)
  Alcotest.(check int) "all published roots live" n !live;
  (* And allocation still works. *)
  for i = 0 to 50 do
    ignore (Nvalloc.malloc_to t' th' ~size:128 ~dest:(Nvalloc.root_addr t' i))
  done

let test_crash_leak_reclaim () =
  (* LOG variant: blocks sitting in tcaches at crash time are recovered as
     free (WAL replay), so repeated crash/recover cycles do not leak.
     Synchronous pipeline: the test asserts every completed op is durable
     at an arbitrary crash point, which group commit deliberately does
     not promise (a crash forfeits the open group). *)
  let variant = `Log in
  let config = { (small_config variant) with Config.batch = false } in
  let dev = Pmem.Device.create ~size:(64 * 1024 * 1024) () in
  let clock = Sim.Clock.create () in
  let t = Nvalloc.create ~config dev clock in
  let th = Nvalloc.thread t clock in
  for i = 0 to 99 do
    ignore (Nvalloc.malloc_to t th ~size:64 ~dest:(Nvalloc.root_addr t i))
  done;
  (* Free half: those blocks are now in the tcache, still marked in the
     persistent bitmap. *)
  for i = 0 to 49 do
    Nvalloc.free_from t th ~dest:(Nvalloc.root_addr t i)
  done;
  Pmem.Device.crash dev;
  let t', report = Nvalloc.recover ~config dev clock in
  Alcotest.(check bool) "replayed some WAL entries" true (report.wal_entries_replayed > 0);
  (* Exactly the 50 still-published blocks are allocated (plus none leaked). *)
  let allocated = Nvalloc.allocated_small_blocks t' in
  Alcotest.(check int) "tcache blocks reclaimed by replay" 50 allocated

let test_gc_crash_collects_garbage () =
  let variant = `Gc in
  let dev, clock, t = mk ~variant () in
  let th = Nvalloc.thread t clock in
  for i = 0 to 99 do
    ignore (Nvalloc.malloc_to t th ~size:64 ~dest:(Nvalloc.root_addr t i))
  done;
  for i = 0 to 49 do
    Nvalloc.free_from t th ~dest:(Nvalloc.root_addr t i)
  done;
  Pmem.Device.crash dev;
  let t', report = Nvalloc.recover ~config:(small_config variant) dev clock in
  Alcotest.(check bool) "GC marked the live blocks" true (report.gc_blocks_marked >= 50);
  Alcotest.(check int) "GC rebuilt exactly the live set" 50 (Nvalloc.allocated_small_blocks t')

let test_linked_list_gc_reachability () =
  (* Roots only point at the list head; the GC must follow next pointers
     stored inside blocks. *)
  let variant = `Gc in
  let dev, clock, t = mk ~variant () in
  let th = Nvalloc.thread t clock in
  let n = 64 in
  (* node layout: [next:int64][value:int64]; allocate head first. *)
  let head_dest = Nvalloc.root_addr t 0 in
  let head = Nvalloc.malloc_to t th ~size:32 ~dest:head_dest in
  let tail = ref head in
  for i = 1 to n - 1 do
    let next_dest = !tail in
    (* next pointer lives at offset 0 of the previous node *)
    let node = Nvalloc.malloc_to t th ~size:32 ~dest:next_dest in
    Pmem.Device.write_int64 dev (node + 8) (Int64.of_int i);
    Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:node ~len:16;
    tail := node
  done;
  Pmem.Device.crash dev;
  let t', _report = Nvalloc.recover ~config:(small_config variant) dev clock in
  Alcotest.(check int) "whole list survives GC" n (Nvalloc.allocated_small_blocks t');
  (* Walk the recovered list. *)
  let count = ref 0 in
  let cur = ref (Nvalloc.read_ptr t' ~dest:(Nvalloc.root_addr t' 0)) in
  while !cur > 0 && !count < n + 1 do
    incr count;
    cur := Int64.to_int (Pmem.Device.read_int64 dev !cur)
  done;
  Alcotest.(check int) "list walk length" n !count

let suite =
  [
    Alcotest.test_case "small alloc/free" `Quick test_alloc_free_small;
    Alcotest.test_case "large alloc/free" `Quick test_alloc_free_large;
    Alcotest.test_case "addresses unique" `Quick test_distinct_addresses;
    Alcotest.test_case "payload integrity" `Quick test_payload_integrity;
    Alcotest.test_case "mixed sizes churn" `Quick test_size_mix;
    Alcotest.test_case "shutdown+recover (LOG)" `Quick (fun () -> test_shutdown_recover `Log);
    Alcotest.test_case "shutdown+recover (GC)" `Quick (fun () -> test_shutdown_recover `Gc);
    Alcotest.test_case "crash+recover (LOG)" `Quick (fun () -> test_crash_recover `Log);
    Alcotest.test_case "crash+recover (GC)" `Quick (fun () -> test_crash_recover `Gc);
    Alcotest.test_case "crash reclaims tcache blocks (LOG)" `Quick test_crash_leak_reclaim;
    Alcotest.test_case "crash GC collects garbage (GC)" `Quick test_gc_crash_collects_garbage;
    Alcotest.test_case "GC follows pointers in blocks" `Quick test_linked_list_gc_reachability;
  ]
