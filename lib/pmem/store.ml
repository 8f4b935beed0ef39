let chunk_bytes = 1 lsl 20
let () = assert (chunk_bytes mod Cacheline.size = 0)

type t = { total : int; chunks : Bytes.t option array }

let create ~size =
  assert (size > 0);
  { total = size; chunks = Array.make ((size + chunk_bytes - 1) / chunk_bytes) None }

let size t = t.total

let chunk_of t i =
  match t.chunks.(i) with
  | Some c -> c
  | None ->
      let c = Bytes.make chunk_bytes '\000' in
      t.chunks.(i) <- Some c;
      c

(* Fast-path predicate: the [len]-byte access stays inside one chunk. *)
let within addr len = addr land (chunk_bytes - 1) <= chunk_bytes - len

let get_u8 t addr =
  assert (addr >= 0 && addr < t.total);
  match t.chunks.(addr lsr 20) with
  | None -> 0
  | Some c -> Bytes.get_uint8 c (addr land (chunk_bytes - 1))

let set_u8 t addr v =
  assert (addr >= 0 && addr < t.total);
  Bytes.set_uint8 (chunk_of t (addr lsr 20)) (addr land (chunk_bytes - 1)) v

let get_u16 t addr =
  if within addr 2 then
    match t.chunks.(addr lsr 20) with
    | None -> 0
    | Some c -> Bytes.get_uint16_le c (addr land (chunk_bytes - 1))
  else get_u8 t addr lor (get_u8 t (addr + 1) lsl 8)

let set_u16 t addr v =
  if within addr 2 then Bytes.set_uint16_le (chunk_of t (addr lsr 20)) (addr land (chunk_bytes - 1)) v
  else begin
    set_u8 t addr (v land 0xFF);
    set_u8 t (addr + 1) ((v lsr 8) land 0xFF)
  end

let get_i64 t addr =
  if within addr 8 then
    match t.chunks.(addr lsr 20) with
    | None -> 0L
    | Some c -> Bytes.get_int64_le c (addr land (chunk_bytes - 1))
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 t (addr + i)))
    done;
    !v
  end

let set_i64 t addr v =
  if within addr 8 then Bytes.set_int64_le (chunk_of t (addr lsr 20)) (addr land (chunk_bytes - 1)) v
  else
    for i = 0 to 7 do
      set_u8 t (addr + i)
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
    done

(* 8-byte words as OCaml ints: the int64 stays unboxed inside these
   functions, so neither call allocates. A stored word must fit 63 bits. *)
let get_int t addr =
  if within addr 8 then
    match t.chunks.(addr lsr 20) with
    | None -> 0
    | Some c ->
        let v = Bytes.get_int64_le c (addr land (chunk_bytes - 1)) in
        let i = Int64.to_int v in
        assert (Int64.of_int i = v);
        i
  else begin
    let v = get_i64 t addr in
    let i = Int64.to_int v in
    assert (Int64.of_int i = v);
    i
  end

let set_int t addr v =
  if within addr 8 then
    Bytes.set_int64_le (chunk_of t (addr lsr 20)) (addr land (chunk_bytes - 1)) (Int64.of_int v)
  else set_i64 t addr (Int64.of_int v)

let get_u32 t addr =
  if within addr 4 then
    match t.chunks.(addr lsr 20) with
    | None -> 0
    | Some c -> Int32.to_int (Bytes.get_int32_le c (addr land (chunk_bytes - 1))) land 0xFFFFFFFF
  else
    get_u8 t addr
    lor (get_u8 t (addr + 1) lsl 8)
    lor (get_u8 t (addr + 2) lsl 16)
    lor (get_u8 t (addr + 3) lsl 24)

let set_u32 t addr v =
  if within addr 4 then
    Bytes.set_int32_le (chunk_of t (addr lsr 20)) (addr land (chunk_bytes - 1)) (Int32.of_int v)
  else
    for i = 0 to 3 do
      set_u8 t (addr + i) ((v lsr (8 * i)) land 0xFF)
    done

(* Range operations walk chunk by chunk. *)
let rec iter_ranges t addr len f =
  if len > 0 then begin
    let off = addr land (chunk_bytes - 1) in
    let n = min len (chunk_bytes - off) in
    f (addr lsr 20) off addr n;
    iter_ranges t (addr + n) (len - n) f
  end

let read_bytes t addr len =
  let b = Bytes.make len '\000' in
  iter_ranges t addr len (fun ci off abs n ->
      match t.chunks.(ci) with
      | None -> ()
      | Some c -> Bytes.blit c off b (abs - addr) n);
  b

let write_bytes t addr src =
  iter_ranges t addr (Bytes.length src) (fun ci off abs n ->
      Bytes.blit src (abs - addr) (chunk_of t ci) off n)

let fill t addr len ch =
  iter_ranges t addr len (fun ci off _abs n ->
      (* Zero-filling a chunk that was never written is a no-op for every
         segment of the range — head, whole chunks and partial tail alike
         — since absent chunks already read as zeros. Only materialise a
         chunk when the fill byte is non-zero or the chunk exists. *)
      match t.chunks.(ci) with
      | None when ch = '\000' -> ()
      | None | Some _ -> Bytes.fill (chunk_of t ci) off n ch)

let allocated_chunks t =
  Array.fold_left (fun acc c -> match c with None -> acc | Some _ -> acc + 1) 0 t.chunks

let copy_line ~src ~dst line =
  let addr = line * Cacheline.size in
  let ci = addr lsr 20 and off = addr land (chunk_bytes - 1) in
  match src.chunks.(ci) with
  | None -> (
      (* Source line is zeros. *)
      match dst.chunks.(ci) with
      | None -> ()
      | Some d -> Bytes.fill d off Cacheline.size '\000')
  | Some s -> Bytes.blit s off (chunk_of dst ci) off Cacheline.size
