type t = {
  seq_flush_ns : float;
  rand_flush_ns : float;
  reflush_base_ns : float;
  reflush_step_ns : float;
  reflush_window : int;
  fence_ns : float;
  pm_read_line_ns : float;
  dram_ns : float;
  search_ns : float;
  wpq_capacity : int;
  wpq_drain_ns : float;
  media_parallelism : float;
}

let default =
  {
    seq_flush_ns = 100.0;
    rand_flush_ns = 300.0;
    reflush_base_ns = 800.0;
    reflush_step_ns = 100.0;
    reflush_window = 4;
    fence_ns = 20.0;
    pm_read_line_ns = 170.0;
    dram_ns = 15.0;
    search_ns = 25.0;
    wpq_capacity = 64;
    wpq_drain_ns = 95.0;
    media_parallelism = 4.0;
  }

(* eADR: no clwb, but dirty lines still consume PM write bandwidth when
   they leave the cache; a flat per-line cost independent of the access
   pattern (hence interleaved mapping is moot there, Figure 19). *)
let eadr =
  {
    default with
    seq_flush_ns = 60.0;
    rand_flush_ns = 60.0;
    reflush_base_ns = 60.0;
    reflush_step_ns = 0.0;
    fence_ns = 5.0;
  }

let[@inline] flush_cost t ~distance ~sequential =
  if distance >= 0 && distance < t.reflush_window then
    t.reflush_base_ns -. (t.reflush_step_ns *. float_of_int distance)
  else if sequential then t.seq_flush_ns
  else t.rand_flush_ns
