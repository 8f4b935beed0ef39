let table =
  let small = List.init 8 (fun i -> 16 * (i + 1)) in
  (* Four classes per doubling from 128 up to 16384. *)
  let rec doublings base acc =
    if base >= 16384 then List.rev acc
    else
      let step = base / 4 in
      let acc = List.fold_left (fun acc i -> (base + (step * i)) :: acc) acc [ 1; 2; 3; 4 ] in
      doublings (base * 2) acc
  in
  Array.of_list (small @ doublings 128 [])

let count = Array.length table
let max_small = table.(count - 1)

let size_of c =
  if c < 0 || c >= count then invalid_arg "Size_class.size_of";
  table.(c)

(* The table is sorted and tiny; a linear scan is clear and the cost is
   charged through the simulated search model, not measured here. *)
let rec first_fit n i = if table.(i) >= n then i else first_fit n (i + 1)
let of_size n = if n <= 0 || n > max_small then -1 else first_fit n 0

let () = assert (max_small = 16384)
