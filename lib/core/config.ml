type consistency = Log_based | Gc_based | Internal_collection

type t = {
  consistency : consistency;
  bit_stripes : int;
  interleave_tcache : bool;
  interleave_wal : bool;
  interleave_log : bool;
  slab_morphing : bool;
  morph_su_threshold : float;
  log_bookkeeping : bool;
  booklog_gc : bool;
  booklog_chunks : int;
  wal_entries : int;
  booklog_slow_gc_threshold : float;
  tcache_capacity : int;
  arenas : int;
  decay_interval_ns : int;
  decay_window_ns : int;
  root_slots : int;
  flush_batch : bool;
  wal_group_commit : int;
  async_checkpoint : float;
  media_replication : bool;
  media_scrub : bool;
  media_scrub_interval_ns : int;
  media_max_repair : int;
  (* Declared SLO targets for latency attribution: (op class, target ns,
     goal fraction of ops expected within target). The error budget is
     1 - goal; the burn rate reported by [nvalloc-cli slo] is the
     violating fraction divided by that budget. *)
  slo_targets : (string * float * float) list;
}

let log_default =
  {
    consistency = Log_based;
    bit_stripes = 6;
    interleave_tcache = true;
    interleave_wal = true;
    interleave_log = true;
    slab_morphing = true;
    morph_su_threshold = 0.20;
    log_bookkeeping = true;
    booklog_gc = true;
    booklog_chunks = 512;
    wal_entries = 8192;
    booklog_slow_gc_threshold = 0.8;
    tcache_capacity = 32;
    arenas = 40;
    decay_interval_ns = 50_000_000;
    decay_window_ns = 500_000_000;
    root_slots = 1 lsl 20;
    flush_batch = true;
    wal_group_commit = 8;
    async_checkpoint = 0.5;
    media_replication = false;
    media_scrub = false;
    media_scrub_interval_ns = 1_000_000;
    media_max_repair = 3;
    (* Calibrated against the batched Larson run in EXPERIMENTS.md "SLO
       attribution": p99 sits comfortably inside these with batching on;
       forcing the sync pipeline burns through the budgets. *)
    slo_targets =
      [ ("malloc:small", 8192.0, 0.99); ("malloc:large", 65536.0, 0.99); ("free", 4096.0, 0.99) ];
  }

let gc_default = { log_default with consistency = Gc_based }

(* Conservative lower bound on the device bytes the metadata (replicas
   included) needs: superblock page, region table + mirror + checksum
   array, root table, per-arena WAL and bookkeeping log with their replica
   lines, and one slab of headroom. Mirrors Heap.layout's structure
   without depending on it. *)
let media_floor t =
  let wal = 64 + (t.wal_entries * 16) + 64 in
  let booklog = if t.log_bookkeeping then 64 + (t.booklog_chunks * 1024) + 64 else 0 in
  4096 + 32768 + 32768 + 1024 + (t.root_slots * 8) + (t.arenas * (wal + booklog)) + 65536

let validate ?dev_size t =
  let reject fmt = Printf.ksprintf invalid_arg fmt in
  if t.arenas < 1 then reject "Config.arenas: need at least one arena (got %d)" t.arenas;
  if t.arenas > 64 then
    reject
      "Config.arenas: the packed slab header's arena field is 6 bits, at most 64 arenas \
       (got %d)"
      t.arenas;
  if t.root_slots < 1 then
    reject "Config.root_slots: need at least one root slot (got %d)" t.root_slots;
  if t.wal_entries < 2 then
    reject "Config.wal_entries: need at least 2 WAL entries (got %d)" t.wal_entries;
  if t.wal_entries mod 64 <> 0 then
    reject "Config.wal_entries: must be a multiple of 64, the WAL frame size (got %d)"
      t.wal_entries;
  if t.log_bookkeeping && t.booklog_chunks < 2 then
    reject
      "Config.booklog_chunks: log-structured bookkeeping needs at least 2 chunks (got %d)"
      t.booklog_chunks;
  if t.bit_stripes < 1 then
    reject "Config.bit_stripes: need at least one bitmap stripe (got %d)" t.bit_stripes;
  if t.tcache_capacity < 1 then
    reject "Config.tcache_capacity: need at least one cached block (got %d)"
      t.tcache_capacity;
  if not (t.morph_su_threshold >= 0.0 && t.morph_su_threshold <= 1.0) then
    reject "Config.morph_su_threshold: must be within [0, 1] (got %g)" t.morph_su_threshold;
  if not (t.booklog_slow_gc_threshold > 0.0 && t.booklog_slow_gc_threshold <= 1.0) then
    reject "Config.booklog_slow_gc_threshold: must be within (0, 1] (got %g)"
      t.booklog_slow_gc_threshold;
  if t.wal_group_commit < 0 then
    reject "Config.wal_group_commit: group size cannot be negative (got %d)"
      t.wal_group_commit;
  if t.wal_group_commit > t.wal_entries / 2 then
    reject
      "Config.wal_group_commit: an open group must fit well inside the ring (got %d for \
       %d entries)"
      t.wal_group_commit t.wal_entries;
  if not (t.async_checkpoint >= 0.0 && t.async_checkpoint <= 1.0) then
    reject "Config.async_checkpoint: must be a ring fraction within [0, 1] (got %g)"
      t.async_checkpoint;
  if t.media_max_repair < 1 then
    reject
      "Config.media_max_repair: need at least one repair attempt before quarantine (got \
       %d)"
      t.media_max_repair;
  List.iter
    (fun (op, target_ns, goal) ->
      if op = "" then reject "Config.slo_targets: op class name cannot be empty";
      if not (target_ns > 0.0) then
        reject "Config.slo_targets: %s needs a positive target (got %g ns)" op target_ns;
      if not (goal > 0.0 && goal < 1.0) then
        reject
          "Config.slo_targets: %s goal must be within (0, 1) — goal 1 leaves no error \
           budget to burn (got %g)"
          op goal)
    t.slo_targets;
  if t.media_scrub && t.media_scrub_interval_ns <= 0 then
    reject "Config.media_scrub_interval_ns: scrubbing needs a positive interval (got %d)"
      t.media_scrub_interval_ns;
  if t.media_scrub && not t.media_replication then
    reject "Config.media_scrub: scrubbing repairs from replicas, enable media_replication";
  if t.media_replication && not t.log_bookkeeping then
    reject
      "Config.media_replication: slab-header verification needs the bookkeeping log's \
       authoritative extent kinds, enable log_bookkeeping";
  match dev_size with
  | Some size when t.media_replication && size < media_floor t ->
      reject
        "Config.media_replication: device too small to hold metadata replicas (need >= \
         %d bytes, got %d)"
        (media_floor t) size
  | _ -> ()

let ic_default = { log_default with consistency = Internal_collection }

(* Everything synchronous: one flush + fence per commit site, no group
   commit, no background checkpointing — the pre-batching behaviour,
   selectable for A/B runs via the CLI's --no-batch. *)
let sync t = { t with flush_batch = false; wal_group_commit = 0; async_checkpoint = 0.0 }

let base consistency =
  {
    log_default with
    consistency;
    bit_stripes = 1;
    interleave_tcache = false;
    interleave_wal = false;
    interleave_log = false;
    slab_morphing = false;
    log_bookkeeping = false;
  }

(* "+Interleaved" (Figure 11): the interleaved tcache layout groups blocks
   by the cache line of their bitmap bit, which only has an effect when the
   bitmap itself is striped; the ablation therefore enables both. *)
let with_interleaved_tcache t = { t with interleave_tcache = true; bit_stripes = 6 }
let with_log_bookkeeping t = { t with log_bookkeeping = true; interleave_log = false }
