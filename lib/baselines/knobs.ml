(** Behavioural parameters of a baseline allocator.

    Each baseline reproduces the heap-metadata access pattern the paper
    attributes to it (sections 3, 6.2, 7, and DESIGN.md section 4); the
    engine in {!Bengine} interprets these knobs. *)

type wal_style =
  | Redo_commit
      (** PMDK-style transaction: log entry flushed, then a commit mark
          flushed into the same line — a guaranteed reflush per op. *)
  | Micro  (** nvm_malloc / PAllocator micro-log: one entry flush per op. *)
  | No_wal  (** GC-based allocators: no logging. *)

type tracking =
  | Bitmap_seq
      (** Sequentially mapped slab bitmaps, flushed on every allocation
          and free: consecutive operations reflush the same line. *)
  | Embedded_list
      (** Free-list links embedded in the blocks (Makalu, Ralloc): the
          slab-header head pointer is reflushed on every operation and
          link writes share cache lines with user data. *)

type recovery_model =
  | Wal_only  (** nvm_malloc: scan the WAL, defer the rest (fast). *)
  | Wal_and_meta  (** PMDK: walk WAL + all region headers + slab bitmaps. *)
  | Headers_partial  (** Ralloc: slab headers plus a partial node scan. *)
  | Conservative_gc  (** Makalu: trace all live data. *)

type t = {
  name : string;
  wal : wal_style;
  tracking : tracking;
  tcache : bool;  (** volatile per-thread block cache (search-only saving) *)
  per_thread_arena : bool;
      (** PAllocator: dedicated small allocators per thread — best
          64-thread scaling, costly cross-thread frees. *)
  persist : bool;  (** false = volatile allocator (jemalloc/tcmalloc) *)
  hoard_empty : bool;  (** Makalu: never returns empty slabs/regions *)
  extra_header_flush : bool;  (** Makalu: per-op counter update (reflush) *)
  page_headers : bool;
      (** Makalu/BDW: write a GC block header every 8 KB of a large
          allocation, the reason its large path is the slowest. *)
  light_large : bool;
      (** PAllocator: its dedicated large allocator (index trees) skips
          the per-region summary updates. *)
  op_overhead_ns : int;  (** constant software cost per operation *)
  supports_large : bool;
  recovery : recovery_model;
}

let pmdk =
  {
    name = "PMDK";
    wal = Redo_commit;
    tracking = Bitmap_seq;
    tcache = false;
    per_thread_arena = false;
    persist = true;
    hoard_empty = false;
    extra_header_flush = false;
    page_headers = false;
    light_large = false;
    op_overhead_ns = 260;
    supports_large = true;
    recovery = Wal_and_meta;
  }

let nvm_malloc =
  {
    pmdk with
    name = "nvm_malloc";
    wal = Micro;
    tcache = true;
    (* Volatile/non-volatile metadata split: cheap flushes but heavier
       DRAM-side bookkeeping than a plain volatile allocator. *)
    op_overhead_ns = 150;
    recovery = Wal_only;
  }

let pallocator =
  {
    pmdk with
    name = "PAllocator";
    wal = Micro;
    tcache = true;
    per_thread_arena = true;
    light_large = true;
    op_overhead_ns = 110;
    recovery = Wal_and_meta;
  }

let makalu =
  {
    name = "Makalu";
    wal = No_wal;
    tracking = Embedded_list;
    tcache = true;
    per_thread_arena = false;
    persist = true;
    hoard_empty = true;
    extra_header_flush = true;
    page_headers = true;
    light_large = false;
    op_overhead_ns = 120;
    supports_large = true;
    recovery = Conservative_gc;
  }

let ralloc =
  {
    makalu with
    name = "Ralloc";
    hoard_empty = false;
    extra_header_flush = false;
    page_headers = false;
    op_overhead_ns = 45;
    supports_large = false;
    recovery = Headers_partial;
  }

let jemalloc =
  {
    name = "jemalloc";
    wal = No_wal;
    tracking = Bitmap_seq;
    tcache = true;
    per_thread_arena = false;
    persist = false;
    hoard_empty = false;
    extra_header_flush = false;
    page_headers = false;
    light_large = false;
    op_overhead_ns = 30;
    supports_large = true;
    recovery = Wal_only;
  }

let tcmalloc = { jemalloc with name = "tcmalloc"; op_overhead_ns = 25 }
