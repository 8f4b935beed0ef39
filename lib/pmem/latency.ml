type t = {
  seq_flush_ns : int;
  rand_flush_ns : int;
  reflush_base_ns : int;
  reflush_step_ns : int;
  reflush_window : int;
  fence_ns : int;
  pm_read_line_ns : int;
  dram_ns : int;
  search_ns : int;
  wpq_capacity : int;
  wpq_drain_ns : int;
  media_parallelism : int;
}

let default =
  {
    seq_flush_ns = 100;
    rand_flush_ns = 300;
    reflush_base_ns = 800;
    reflush_step_ns = 100;
    reflush_window = 4;
    fence_ns = 20;
    pm_read_line_ns = 170;
    dram_ns = 15;
    search_ns = 25;
    wpq_capacity = 64;
    wpq_drain_ns = 95;
    media_parallelism = 4;
  }

(* eADR: no clwb, but dirty lines still consume PM write bandwidth when
   they leave the cache; a flat per-line cost independent of the access
   pattern (hence interleaved mapping is moot there, Figure 19). *)
let eadr =
  {
    default with
    seq_flush_ns = 60;
    rand_flush_ns = 60;
    reflush_base_ns = 60;
    reflush_step_ns = 0;
    fence_ns = 5;
  }

let[@inline] flush_cost t ~distance ~sequential =
  if distance >= 0 && distance < t.reflush_window then
    t.reflush_base_ns - (t.reflush_step_ns * distance)
  else if sequential then t.seq_flush_ns
  else t.rand_flush_ns
