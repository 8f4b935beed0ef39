(* The geometry is [Device]'s; this module re-exports it. *)
let size = 1 lsl Device.line_shift
let index addr = addr lsr Device.line_shift

let span addr len =
  assert (len > 0);
  (index addr, index (addr + len - 1))

let xpline addr = addr lsr Device.xpline_shift
