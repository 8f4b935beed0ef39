open Nvalloc_core

type kind =
  | Pmdk
  | Nvm_malloc
  | Pallocator
  | Makalu
  | Ralloc
  | Jemalloc
  | Tcmalloc
  | Nv_log
  | Nv_gc
  | Nv_ic
  | Nv_custom of string * Config.t

let name = function
  | Pmdk -> "PMDK"
  | Nvm_malloc -> "nvm_malloc"
  | Pallocator -> "PAllocator"
  | Makalu -> "Makalu"
  | Ralloc -> "Ralloc"
  | Jemalloc -> "jemalloc"
  | Tcmalloc -> "tcmalloc"
  | Nv_log -> "NVAlloc-LOG"
  | Nv_gc -> "NVAlloc-GC"
  | Nv_ic -> "NVAlloc-IC"
  | Nv_custom (n, _) -> n

let force_sync = ref false

let make ?(eadr = false) ?(dev_size = 512 * 1024 * 1024) ?(root_slots = 1 lsl 18) ~threads kind =
  let baseline knobs =
    Baselines.Bengine.instance ~knobs ~threads ~dev_size ~eadr ~root_slots ()
  in
  let nvalloc ?name config =
    let config = if !force_sync then { config with Config.batch = false } else config in
    Alloc_api.Instance.of_nvalloc ?name
      ~config:{ config with Config.root_slots }
      ~threads ~dev_size ~eadr ()
  in
  match kind with
  | Pmdk -> baseline Baselines.Knobs.pmdk
  | Nvm_malloc -> baseline Baselines.Knobs.nvm_malloc
  | Pallocator -> baseline Baselines.Knobs.pallocator
  | Makalu -> baseline Baselines.Knobs.makalu
  | Ralloc -> baseline Baselines.Knobs.ralloc
  | Jemalloc -> baseline Baselines.Knobs.jemalloc
  | Tcmalloc -> baseline Baselines.Knobs.tcmalloc
  | Nv_log -> nvalloc Config.log_default
  | Nv_gc -> nvalloc Config.gc_default
  | Nv_ic -> nvalloc Config.ic_default
  | Nv_custom (n, config) -> nvalloc ~name:n config

let strong = [ Pmdk; Nvm_malloc; Pallocator; Nv_log ]
let weak = [ Makalu; Ralloc; Nv_gc ]
let large_set = [ Pmdk; Nvm_malloc; Pallocator; Makalu; Nv_log ]

let log_full = Config.log_default
let log_stripes n = { Config.log_default with Config.bit_stripes = n }
let log_su su = { Config.log_default with Config.morph_su_threshold = su }
