type span = { addr : int; len : int }

let span_of ~addr ~len = { addr; len }

type _ ty =
  | U8 : int ty
  | U16 : int ty
  | U32 : int ty
  | I64 : int64 ty
  | Int : int ty
  | Bytes : int -> bytes ty

let ty_len : type a. a ty -> int = function
  | U8 -> 1
  | U16 -> 2
  | U32 -> 4
  | I64 -> 8
  | Int -> 8
  | Bytes n ->
      if n <= 0 then invalid_arg "Pstruct: Bytes field must have positive length";
      n

(* Declared extents, kept for overlap rejection and pretty-printing.
   [e_pp] closes over the typed field so [pp] needs no GADT dispatch. *)
type entry = {
  e_name : string;
  e_off : int;
  e_len : int;
  e_pp : Pmem.Device.t -> int -> Format.formatter -> unit;
}

type layout = {
  l_name : string;
  mutable l_entries : entry list; (* reverse declaration order *)
  mutable l_sealed : bool;
}

type 'a field = { f_layout : layout; f_name : string; f_off : int; f_ty : 'a ty }

type 'a arr = {
  a_layout : layout;
  a_name : string;
  a_off : int;
  a_stride : int;
  a_count : int;
  a_ty : 'a ty;
}

let layout name = { l_name = name; l_entries = []; l_sealed = false }

let reject l fmt =
  Printf.ksprintf (fun msg -> invalid_arg (Printf.sprintf "Pstruct %s: %s" l.l_name msg)) fmt

let reserve l name ~off ~len pp =
  if l.l_sealed then reject l "field %s declared after seal" name;
  if off < 0 || len <= 0 then reject l "field %s has bad extent (off=%d, len=%d)" name off len;
  List.iter
    (fun e ->
      if off < e.e_off + e.e_len && e.e_off < off + len then
        reject l "field %s [%d..%d) overlaps %s [%d..%d)" name off (off + len) e.e_name
          e.e_off (e.e_off + e.e_len))
    l.l_entries;
  l.l_entries <- { e_name = name; e_off = off; e_len = len; e_pp = pp } :: l.l_entries

let pp_value : type a. a ty -> Format.formatter -> a -> unit =
 fun ty ppf v ->
  match ty with
  | U8 -> Format.fprintf ppf "%#x" v
  | U16 -> Format.fprintf ppf "%#x" v
  | U32 -> Format.fprintf ppf "%#x" v
  | I64 -> Format.fprintf ppf "%#Lx" v
  | Int -> Format.fprintf ppf "%d" v
  | Bytes _ ->
      Format.pp_print_char ppf '"';
      Bytes.iter (fun c -> Format.fprintf ppf "%02x" (Char.code c)) v;
      Format.pp_print_char ppf '"'

let[@inline] read : type a. a ty -> Pmem.Device.t -> int -> a =
 fun ty dev addr ->
  match ty with
  | U8 -> Pmem.Device.read_u8 dev addr
  | U16 -> Pmem.Device.read_u16 dev addr
  | U32 -> Pmem.Device.read_u32 dev addr
  | I64 -> Pmem.Device.read_int64 dev addr
  | Int -> Pmem.Device.read_int dev addr
  | Bytes n -> Pmem.Device.read_bytes dev addr n

let[@inline] write : type a. a ty -> Pmem.Device.t -> int -> a -> unit =
 fun ty dev addr v ->
  match ty with
  | U8 -> Pmem.Device.write_u8 dev addr v
  | U16 -> Pmem.Device.write_u16 dev addr v
  | U32 -> Pmem.Device.write_u32 dev addr v
  | I64 -> Pmem.Device.write_int64 dev addr v
  | Int -> Pmem.Device.write_int dev addr v
  | Bytes n ->
      if Bytes.length v <> n then
        invalid_arg
          (Printf.sprintf "Pstruct: bytes value of length %d written to %d-byte field"
             (Bytes.length v) n);
      Pmem.Device.write_bytes dev addr v

let field l name ~off ty =
  let f = { f_layout = l; f_name = name; f_off = off; f_ty = ty } in
  reserve l name ~off ~len:(ty_len ty) (fun dev base ppf ->
      pp_value ty ppf (read ty dev (base + off)));
  f

let array l name ~off ?stride ~count ty =
  let elt = ty_len ty in
  let stride = Option.value ~default:elt stride in
  if count <= 0 || stride < elt then
    reject l "array %s has bad shape (count=%d, stride=%d, elt=%d)" name count stride elt;
  let a = { a_layout = l; a_name = name; a_off = off; a_stride = stride; a_count = count; a_ty = ty } in
  reserve l name ~off ~len:(stride * count) (fun dev base ppf ->
      let shown = min count 8 in
      Format.pp_print_char ppf '[';
      for i = 0 to shown - 1 do
        if i > 0 then Format.pp_print_string ppf "; ";
        pp_value ty ppf (read ty dev (base + off + (i * stride)))
      done;
      if shown < count then Format.fprintf ppf "; … %d more" (count - shown);
      Format.pp_print_char ppf ']');
  a

let u8 l name ~off = field l name ~off U8
let u16 l name ~off = field l name ~off U16
let u32 l name ~off = field l name ~off U32
let i64 l name ~off = field l name ~off I64
let int_ l name ~off = field l name ~off Int
let bytes_ l name ~off ~len = field l name ~off (Bytes len)

let seal l ~size =
  if l.l_sealed then reject l "sealed twice";
  if size <= 0 then reject l "sealed with non-positive size %d" size;
  List.iter
    (fun e ->
      if e.e_off + e.e_len > size then
        reject l "field %s [%d..%d) escapes sealed size %d" e.e_name e.e_off
          (e.e_off + e.e_len) size)
    l.l_entries;
  l.l_sealed <- true

(* --- typed access ------------------------------------------------------ *)

let[@inline] get dev ~base f = read f.f_ty dev (base + f.f_off)
let[@inline] set dev ~base f v = write f.f_ty dev (base + f.f_off) v

let[@inline] elt_addr a base i =
  if i < 0 || i >= a.a_count then
    invalid_arg
      (Printf.sprintf "Pstruct %s: index %d outside array %s[%d]" a.a_layout.l_name i
         a.a_name a.a_count);
  base + a.a_off + (i * a.a_stride)

let[@inline] get_elt dev ~base a i = read a.a_ty dev (elt_addr a base i)
let[@inline] set_elt dev ~base a i v = write a.a_ty dev (elt_addr a base i) v

(* --- spans -------------------------------------------------------------- *)

let[@inline] span ~base f = { addr = base + f.f_off; len = ty_len f.f_ty }
let elt_span ~base a i = { addr = elt_addr a base i; len = ty_len a.a_ty }

(* --- persistence -------------------------------------------------------- *)

let[@inline] flush_span dev clock cat s = Pmem.Device.flush dev clock cat ~addr:s.addr ~len:s.len

let commit ?(deps = []) dev clock cat s =
  if deps != [] then
    List.iter
      (fun (note, d) -> Pmem.Device.depends_on ~note dev clock ~addr:d.addr ~len:d.len)
      deps;
  Pmem.Device.commit_flush dev clock cat ~addr:s.addr ~len:s.len

(* --- debugging ---------------------------------------------------------- *)

let pp dev ~base ppf l =
  let entries = List.sort (fun a b -> compare a.e_off b.e_off) (List.rev l.l_entries) in
  Format.fprintf ppf "@[<v 2>%s @@ %#x {" l.l_name base;
  List.iter
    (fun e ->
      Format.fprintf ppf "@,%-12s @@+%-4d = " e.e_name e.e_off;
      e.e_pp dev base ppf)
    entries;
  Format.fprintf ppf "@]@,}"
