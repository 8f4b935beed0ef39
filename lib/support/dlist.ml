type 'a node = {
  v : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable linked : bool;
}

type 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable len : int;
}

let create () = { head = None; tail = None; len = 0 }
let length t = t.len
let is_empty t = t.len = 0
let value n = n.v

let push_front t v =
  let n = { v; prev = None; next = t.head; linked = true } in
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n;
  t.len <- t.len + 1;
  n

let push_back t v =
  let n = { v; prev = t.tail; next = None; linked = true } in
  (match t.tail with Some tl -> tl.next <- Some n | None -> t.head <- Some n);
  t.tail <- Some n;
  t.len <- t.len + 1;
  n

let remove t n =
  assert n.linked;
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.linked <- false;
  t.len <- t.len - 1

let pop_front t =
  match t.head with
  | None -> None
  | Some n ->
      remove t n;
      Some n.v

let front t = match t.head with None -> invalid_arg "Dlist.front" | Some n -> n.v
let is_last t n = match t.tail with None -> false | Some tl -> tl == n

let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
        let next = n.next in
        f n.v;
        go next
  in
  go t.head

let find_node pred t =
  let rec go = function
    | None -> None
    | Some n -> if pred n.v then Some n else go n.next
  in
  go t.head

let to_list t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc
