(* Red-black tree: unit cases plus model-based property tests against
   Stdlib.Map, including the structural invariants after every op. *)

module Rb = Support.Rbtree.Make (struct
  type t = int

  let compare = compare
end)

module M = Map.Make (Int)

let check = Alcotest.(check (option int))

let test_basic () =
  let t = Rb.create () in
  Alcotest.(check bool) "empty" true (Rb.is_empty t);
  Rb.insert t 5 50;
  Rb.insert t 3 30;
  Rb.insert t 8 80;
  Alcotest.(check int) "cardinal" 3 (Rb.cardinal t);
  check "find 3" (Some 30) (Rb.find_opt t 3);
  check "find 9" None (Rb.find_opt t 9);
  Rb.insert t 3 31;
  Alcotest.(check int) "cardinal after replace" 3 (Rb.cardinal t);
  check "replaced" (Some 31) (Rb.find_opt t 3);
  Rb.remove t 3;
  check "removed" None (Rb.find_opt t 3);
  Alcotest.(check int) "cardinal after remove" 2 (Rb.cardinal t);
  Rb.remove t 99;
  Alcotest.(check int) "remove missing is noop" 2 (Rb.cardinal t)

let test_ordered_queries () =
  let t = Rb.create () in
  List.iter (fun k -> Rb.insert t k (k * 10)) [ 10; 20; 30; 40 ];
  check "geq 15" (Some 200) (Option.map snd (Rb.find_first_geq t 15));
  check "geq 20" (Some 200) (Option.map snd (Rb.find_first_geq t 20));
  check "geq 41" None (Option.map snd (Rb.find_first_geq t 41));
  check "leq 15" (Some 100) (Option.map snd (Rb.find_last_leq t 15));
  check "leq 9" None (Option.map snd (Rb.find_last_leq t 9));
  check "lt 20" (Some 100) (Option.map snd (Rb.find_last_lt t 20));
  check "lt 10" None (Option.map snd (Rb.find_last_lt t 10));
  Alcotest.(check (option (pair int int))) "min" (Some (10, 100)) (Rb.min_binding_opt t);
  Alcotest.(check (option (pair int int))) "max" (Some (40, 400)) (Rb.max_binding_opt t)

let test_iter_order () =
  let t = Rb.create () in
  List.iter (fun k -> Rb.insert t k k) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] (List.map fst (Rb.to_list t))

(* Property: random op sequences agree with Map and preserve invariants
   (order, colours, black height, parent links, cardinal). Every insert
   binds a fresh value, so a replace that kept the old value, or a
   two-child delete that moved a value to the wrong key, shows in the
   bindings and not only in the keys. *)
let prop_model =
  let open QCheck in
  let op =
    Gen.(
      oneof
        [
          map (fun k -> `Insert k) (int_bound 200);
          map (fun k -> `Remove k) (int_bound 200);
        ])
  in
  Test.make ~name:"rbtree agrees with Map and keeps invariants" ~count:300
    (make Gen.(list_size (int_bound 400) op))
    (fun ops ->
      let t = Rb.create () in
      let m = ref M.empty in
      let fresh = ref 0 in
      List.for_all
        (fun op ->
          let k =
            match op with
            | `Insert k ->
                incr fresh;
                Rb.insert t k !fresh;
                m := M.add k !fresh !m;
                k
            | `Remove k ->
                Rb.remove t k;
                m := M.remove k !m;
                k
          in
          Rb.invariants_ok t
          && Rb.cardinal t = M.cardinal !m
          && Rb.find_opt t k = M.find_opt k !m
          && Rb.to_list t = M.bindings !m)
        ops)

let prop_ordered_queries =
  let open QCheck in
  Test.make ~name:"geq/leq/lt agree with a list model" ~count:300
    (make Gen.(pair (list_size (int_bound 60) (int_bound 100)) (int_bound 100)))
    (fun (keys, probe) ->
      let t = Rb.create () in
      List.iter (fun k -> Rb.insert t k k) keys;
      let sorted = List.sort_uniq compare keys in
      let geq = List.find_opt (fun k -> k >= probe) sorted in
      let leq = List.fold_left (fun acc k -> if k <= probe then Some k else acc) None sorted in
      let lt = List.fold_left (fun acc k -> if k < probe then Some k else acc) None sorted in
      Option.map fst (Rb.find_first_geq t probe) = geq
      && Option.map fst (Rb.find_last_leq t probe) = leq
      && Option.map fst (Rb.find_last_lt t probe) = lt)

(* Minor words allocated by one call (the tree is updated in place). *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_allocation () =
  let check_words what expected f =
    Alcotest.(check (float 0.0)) what expected (words f)
  in
  check_words "measurement itself" 0.0 (fun () -> ());
  List.iter
    (fun n ->
      let t = Rb.create () in
      for k = 1 to n do
        Rb.insert t (k * 2) k
      done;
      let hit = 2 * ((n + 1) / 2) and miss = 2 * n + 1 in
      let label what = Printf.sprintf "%s (%d nodes)" what n in
      (* One node: header plus colour, key, value, left, right, parent. *)
      check_words (label "fresh insert") 7.0 (fun () -> Rb.insert t miss 0);
      check_words (label "replacing insert") 0.0 (fun () -> Rb.insert t miss 1);
      check_words (label "remove") 0.0 (fun () -> Rb.remove t miss);
      check_words (label "remove missing") 0.0 (fun () -> Rb.remove t miss);
      (* Queries allocate their result only: [Some v] is 2 words,
         [Some (k, v)] 5, [None] nothing. *)
      check_words (label "find_opt hit") 2.0 (fun () -> ignore (Rb.find_opt t hit));
      check_words (label "find_opt miss") 0.0 (fun () -> ignore (Rb.find_opt t miss));
      check_words (label "mem") 0.0 (fun () -> ignore (Rb.mem t hit));
      check_words (label "find_first_geq") 5.0 (fun () -> ignore (Rb.find_first_geq t hit));
      check_words (label "find_first_geq none") 0.0 (fun () ->
          ignore (Rb.find_first_geq t miss));
      check_words (label "find_last_leq") 5.0 (fun () -> ignore (Rb.find_last_leq t miss));
      check_words (label "find_last_lt") 5.0 (fun () -> ignore (Rb.find_last_lt t miss));
      check_words (label "find_last_lt none") 0.0 (fun () -> ignore (Rb.find_last_lt t 0));
      check_words (label "min_binding_opt") 5.0 (fun () -> ignore (Rb.min_binding_opt t));
      check_words (label "max_binding_opt") 5.0 (fun () -> ignore (Rb.max_binding_opt t));
      (* Removing every node, through every fix-up case, allocates nothing. *)
      let total = ref 0.0 in
      for k = 1 to n do
        total := !total +. words (fun () -> Rb.remove t (((k * 7) mod n + 1) * 2))
      done;
      Alcotest.(check (float 0.0)) (label "remove all") 0.0 !total;
      Alcotest.(check bool) (label "emptied") true (Rb.is_empty t && Rb.invariants_ok t))
    [ 1; 1000 ]

(* The simulated search cost: the integer floor-log2 agrees with the float
   formula it replaced, for every tree size up to 2^20. *)
let test_search_steps () =
  for n = 0 to 1 lsl 20 do
    let by_float = 1 + if n <= 1 then 0 else int_of_float (Float.log2 (float_of_int n)) in
    if Support.Rbtree.search_steps n <> by_float then
      Alcotest.failf "search_steps %d = %d, float formula %d" n
        (Support.Rbtree.search_steps n) by_float
  done

let suite =
  [
    Alcotest.test_case "basic insert/find/remove" `Quick test_basic;
    Alcotest.test_case "ordered queries" `Quick test_ordered_queries;
    Alcotest.test_case "iteration order" `Quick test_iter_order;
    Alcotest.test_case "allocation per operation" `Quick test_allocation;
    Alcotest.test_case "search steps match floor log2" `Quick test_search_steps;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_ordered_queries;
  ]
