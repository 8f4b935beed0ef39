(* Red-black tree: unit cases plus model-based property tests against
   Stdlib.Map, including the structural invariants after every op. *)

module Rb = Support.Rbtree
module M = Map.Make (Int)

module PM = Map.Make (struct
  type t = int * int

  let compare = compare
end)

let check = Alcotest.(check (option int))

(* Single-int-key views of the node queries (second component 0). *)
let opt t n = if n = Rb.none then None else Some (Rb.value t n)
let binding t n = if n = Rb.none then None else Some (Rb.key1 t n, Rb.value t n)
let find_opt t k = opt t (Rb.find t k 0)
let insert t k v = ignore (Rb.insert t k 0 v : Rb.node)
let to_list t = List.rev (Rb.fold (fun k1 k2 v acc -> ((k1, k2), v) :: acc) t [])

let test_basic () =
  let t = Rb.create ~dummy:0 in
  Alcotest.(check bool) "empty" true (Rb.cardinal t = 0);
  insert t 5 50;
  insert t 3 30;
  insert t 8 80;
  Alcotest.(check int) "cardinal" 3 (Rb.cardinal t);
  check "find 3" (Some 30) (find_opt t 3);
  check "find 9" None (find_opt t 9);
  insert t 3 31;
  Alcotest.(check int) "cardinal after replace" 3 (Rb.cardinal t);
  check "replaced" (Some 31) (find_opt t 3);
  Rb.remove t 3 0;
  check "removed" None (find_opt t 3);
  Alcotest.(check int) "cardinal after remove" 2 (Rb.cardinal t);
  Rb.remove t 99 0;
  Alcotest.(check int) "remove missing is noop" 2 (Rb.cardinal t)

let test_ordered_queries () =
  let t = Rb.create ~dummy:0 in
  List.iter (fun k -> insert t k (k * 10)) [ 10; 20; 30; 40 ];
  check "geq 15" (Some 200) (opt t (Rb.find_first_geq t 15 0));
  check "geq 20" (Some 200) (opt t (Rb.find_first_geq t 20 0));
  check "geq 41" None (opt t (Rb.find_first_geq t 41 0));
  check "leq 15" (Some 100) (opt t (Rb.find_last_leq t 15 0));
  check "leq 9" None (opt t (Rb.find_last_leq t 9 0));
  check "lt 20" (Some 100) (opt t (Rb.find_last_lt t 20 0));
  check "lt 10" None (opt t (Rb.find_last_lt t 10 0));
  Alcotest.(check (option (pair int int))) "min" (Some (10, 100)) (binding t (Rb.min_node t));
  Alcotest.(check (option (pair int int))) "max" (Some (40, 400)) (binding t (Rb.max_node t))

let test_iter_order () =
  let t = Rb.create ~dummy:0 in
  List.iter (fun k -> insert t k k) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ]
    (List.map (fun ((k, _), _) -> k) (to_list t))

(* Property: random op sequences agree with Map and preserve invariants
   (order, colours, black height, parent links, cardinal, free list).
   Every insert binds a fresh value, so a replace that kept the old
   value, or a two-child delete that moved a value to the wrong key,
   shows in the bindings and not only in the keys. *)
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
      let t = Rb.create ~dummy:0 in
      let m = ref M.empty in
      let fresh = ref 0 in
      List.for_all
        (fun op ->
          let k =
            match op with
            | `Insert k ->
                incr fresh;
                insert t k !fresh;
                m := M.add k !fresh !m;
                k
            | `Remove k ->
                Rb.remove t k 0;
                m := M.remove k !m;
                k
          in
          Rb.invariants_ok t
          && Rb.cardinal t = M.cardinal !m
          && find_opt t k = M.find_opt k !m
          && List.map (fun ((k, _), v) -> (k, v)) (to_list t) = M.bindings !m)
        ops)

(* Pair keys, handles and every query against a Map model. Keys come from
   a small range so inserts replace, removes hit, and freed nodes are
   reused; a handle returned by [insert] must still name its binding
   when [remove_node] uses it. *)
let prop_pair_model =
  let open QCheck in
  let key = Gen.(pair (int_bound 12) (int_bound 3)) in
  let op =
    Gen.(
      frequency
        [
          (4, map (fun k -> `Insert k) key);
          (2, map (fun k -> `Remove k) key);
          (2, map (fun k -> `Remove_node k) key);
          (2, map (fun k -> `Query k) key);
        ])
  in
  Test.make ~name:"pair keys, handles and queries agree with Map" ~count:300
    (make Gen.(list_size (int_bound 300) op))
    (fun ops ->
      let t = Rb.create ~dummy:(-1) in
      let m = ref PM.empty and handles = Hashtbl.create 64 in
      let fresh = ref 0 in
      let node_is n expected =
        match expected with
        | None -> n = Rb.none
        | Some ((k1, k2), v) ->
            n <> Rb.none && Rb.key1 t n = k1 && Rb.key2 t n = k2 && Rb.value t n = v
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | `Insert ((k1, k2) as k) ->
                incr fresh;
                let n = Rb.insert t k1 k2 !fresh in
                (match Hashtbl.find_opt handles k with
                | Some h when PM.mem k !m -> assert (h = n)
                | _ -> ());
                Hashtbl.replace handles k n;
                m := PM.add k !fresh !m;
                true
            | `Remove ((k1, k2) as k) ->
                Rb.remove t k1 k2;
                m := PM.remove k !m;
                true
            | `Remove_node ((k1, k2) as k) ->
                if PM.mem k !m then begin
                  let n = Hashtbl.find handles k in
                  let same = Rb.find t k1 k2 = n in
                  Rb.remove_node t n;
                  m := PM.remove k !m;
                  same
                end
                else true
            | `Query ((k1, k2) as q) ->
                node_is (Rb.find t k1 k2) (Option.map (fun v -> (q, v)) (PM.find_opt q !m))
                && node_is (Rb.find_first_geq t k1 k2) (PM.find_first_opt (fun k -> k >= q) !m)
                && node_is (Rb.find_last_leq t k1 k2) (PM.find_last_opt (fun k -> k <= q) !m)
                && node_is (Rb.find_last_lt t k1 k2) (PM.find_last_opt (fun k -> k < q) !m)
                && node_is (Rb.min_node t) (PM.min_binding_opt !m)
                && node_is (Rb.max_node t) (PM.max_binding_opt !m)
          in
          ok
          && Rb.invariants_ok t
          && Rb.cardinal t = PM.cardinal !m
          && to_list t = PM.bindings !m)
        ops)

let prop_ordered_queries =
  let open QCheck in
  Test.make ~name:"geq/leq/lt agree with a list model" ~count:300
    (make Gen.(pair (list_size (int_bound 60) (int_bound 100)) (int_bound 100)))
    (fun (keys, probe) ->
      let t = Rb.create ~dummy:0 in
      List.iter (fun k -> insert t k k) keys;
      let sorted = List.sort_uniq compare keys in
      let geq = List.find_opt (fun k -> k >= probe) sorted in
      let leq = List.fold_left (fun acc k -> if k <= probe then Some k else acc) None sorted in
      let lt = List.fold_left (fun acc k -> if k < probe then Some k else acc) None sorted in
      opt t (Rb.find_first_geq t probe 0) = geq
      && opt t (Rb.find_last_leq t probe 0) = leq
      && opt t (Rb.find_last_lt t probe 0) = lt)

(* Minor words allocated by one call (the tree is updated in place). *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Once the arrays have grown, nothing allocates: not an insert that
   reuses a freed node, not a remove by key or by handle, not a query. *)
let test_allocation () =
  let check_words what f = Alcotest.(check (float 0.0)) what 0.0 (words f) in
  check_words "measurement itself" (fun () -> ());
  List.iter
    (fun n ->
      let t = Rb.create ~dummy:0 in
      for k = 1 to n do
        insert t (k * 2) k
      done;
      let hit = 2 * ((n + 1) / 2) and miss = (2 * n) + 1 in
      let label what = Printf.sprintf "%s (%d nodes)" what n in
      Rb.remove t hit 0;
      check_words (label "insert reusing a freed node") (fun () -> insert t miss 0);
      check_words (label "replacing insert") (fun () -> insert t miss 1);
      check_words (label "remove") (fun () -> Rb.remove t miss 0);
      check_words (label "remove missing") (fun () -> Rb.remove t miss 0);
      let node = Rb.insert t miss 0 0 in
      check_words (label "remove_node") (fun () -> Rb.remove_node t node);
      insert t hit hit;
      check_words (label "find hit") (fun () -> ignore (Rb.value t (Rb.find t hit 0)));
      check_words (label "find miss") (fun () -> ignore (Rb.find t miss 0));
      check_words (label "find_first_geq") (fun () -> ignore (Rb.find_first_geq t hit 0));
      check_words (label "find_last_leq") (fun () -> ignore (Rb.find_last_leq t miss 0));
      check_words (label "find_last_lt") (fun () -> ignore (Rb.find_last_lt t miss 0));
      check_words (label "min_node") (fun () -> ignore (Rb.key1 t (Rb.min_node t)));
      check_words (label "max_node") (fun () -> ignore (Rb.key2 t (Rb.max_node t)));
      (* Removing every node, through every fix-up case, allocates nothing. *)
      let total = ref 0.0 in
      for k = 1 to n do
        total := !total +. words (fun () -> Rb.remove t ((((k * 7) mod n) + 1) * 2) 0)
      done;
      Alcotest.(check (float 0.0)) (label "remove all") 0.0 !total;
      Alcotest.(check bool) (label "emptied") true (Rb.cardinal t = 0 && Rb.invariants_ok t))
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

(* The halving loop [search_steps] ran before it read a float exponent. *)
let steps_by_loop n =
  let rec go steps n = if n <= 1 then steps else go (steps + 1) (n lsr 1) in
  go 1 n

(* Over the whole int range: a uniform int, an int of uniform bit width,
   and with each case the power of two 2^b and its neighbours, its
   negation, 0, 1, -1, [min_int] and [max_int]. *)
let prop_search_steps =
  let open QCheck in
  Test.make ~name:"search_steps agrees with the halving loop over every int" ~count:2000
    (make
       ~print:Print.(pair int int)
       Gen.(
         pair
           (oneof [ int; map2 (fun w n -> n lsr w) (int_range 0 62) int ])
           (int_range 0 61)))
    (fun (n, b) ->
      List.for_all
        (fun n -> Rb.search_steps n = steps_by_loop n)
        [ n; (1 lsl b) - 1; 1 lsl b; (1 lsl b) + 1; -(1 lsl b); 0; 1; -1; min_int; max_int ])

let suite =
  [
    Alcotest.test_case "basic insert/find/remove" `Quick test_basic;
    Alcotest.test_case "ordered queries" `Quick test_ordered_queries;
    Alcotest.test_case "iteration order" `Quick test_iter_order;
    Alcotest.test_case "allocation per operation" `Quick test_allocation;
    Alcotest.test_case "search steps match floor log2" `Quick test_search_steps;
    QCheck_alcotest.to_alcotest prop_search_steps;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_pair_model;
    QCheck_alcotest.to_alcotest prop_ordered_queries;
  ]
