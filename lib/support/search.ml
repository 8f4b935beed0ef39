type 'a counterexample = { original : 'a; shrunk : 'a; reason : string }

let max_shrink_rounds = 64
let max_domains = 64

type failure = Failed of string | Raised of exn * Printexc.raw_backtrace

let shrink ~test ~candidates original reason =
  let fails c = match test c with Ok _ -> None | Error r -> Some (c, r) in
  let rec go shrunk reason rounds =
    match if rounds = 0 then None else List.find_map fails (candidates shrunk) with
    | Some (smaller, reason) -> go smaller reason (rounds - 1)
    | None -> { original; shrunk; reason }
  in
  go original reason max_shrink_rounds

let run ?(domains = 1) ~test ~candidates cases =
  if domains < 1 || domains > max_domains then
    invalid_arg
      (Printf.sprintf "Search.run: domains must be in 1..%d (got %d)" max_domains domains);
  let n = Array.length cases in
  let failures = Array.make n None in
  let next = Atomic.make 0 in
  (* The lowest failing index found so far ([n]: none). Indices are
     handed out in increasing order, so every index below its final
     value was started, and a failure found there is final. *)
  let lowest = Atomic.make n in
  let rec lower i =
    let l = Atomic.get lowest in
    if i < l && not (Atomic.compare_and_set lowest l i) then lower i
  in
  let fail i failure =
    failures.(i) <- Some failure;
    lower i
  in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Atomic.get lowest then begin
      (match test cases.(i) with
      | Ok _ -> ()
      | Error reason -> fail i (Failed reason)
      | exception e -> fail i (Raised (e, Printexc.get_raw_backtrace ())));
      worker ()
    end
  in
  let spawned = Array.init (max 0 (min domains n - 1)) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join spawned;
  let l = Atomic.get lowest in
  if l = n then None
  else
    match failures.(l) with
    | Some (Failed reason) -> Some (shrink ~test ~candidates cases.(l) reason)
    | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None -> assert false

type fields = (string, string) Hashtbl.t

let fields line =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | [] -> Ok tbl
    | "" :: rest -> go rest
    | tok :: rest -> (
        match String.index_opt tok '=' with
        | Some i ->
            Hashtbl.replace tbl (String.sub tok 0 i)
              (String.sub tok (i + 1) (String.length tok - i - 1));
            go rest
        | None -> Error (Printf.sprintf "bad token %S (expected key=value)" tok))
  in
  go (String.split_on_char ' ' (String.trim line))

let field f k =
  match Hashtbl.find_opt f k with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let to_int k v =
  match int_of_string_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "field %s: not an integer (%S)" k v)

let int_field f k = Result.bind (field f k) (to_int k)

let opt_int_field f k =
  match Hashtbl.find_opt f k with
  | None -> Ok None
  | Some v -> Result.map Option.some (to_int k v)

let dash_int_field f k =
  Result.bind (field f k) (fun v ->
      if v = "-" then Ok None
      else
        match int_of_string_opt v with
        | Some n -> Ok (Some n)
        | None -> Error (Printf.sprintf "field %s: expected - or an integer (%S)" k v))

let dedup ~key case candidates =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun c ->
      let k = key c in
      c <> case && not (Hashtbl.mem seen k) && (Hashtbl.replace seen k (); true))
    candidates
