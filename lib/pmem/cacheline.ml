let size = 64
let index addr = addr lsr 6

let span addr len =
  assert (len > 0);
  (index addr, index (addr + len - 1))

let xpline addr = addr lsr 8
