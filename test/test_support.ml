(* Dlist and smootherstep. *)

module D = Support.Dlist

let test_dlist_basic () =
  let l = D.create () in
  Alcotest.(check bool) "empty" true (D.is_empty l);
  let _a = D.push_back l 1 in
  let b = D.push_back l 2 in
  let _c = D.push_back l 3 in
  Alcotest.(check int) "length" 3 (D.length l);
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (D.to_list l);
  D.remove l b;
  Alcotest.(check (list int)) "middle removed" [ 1; 3 ] (D.to_list l);
  Alcotest.(check (option int)) "pop front" (Some 1) (D.pop_front l);
  Alcotest.(check int) "peek" 3 (D.front l);
  Alcotest.(check (option int)) "pop last" (Some 3) (D.pop_front l);
  Alcotest.(check (option int)) "pop empty" None (D.pop_front l)

let test_dlist_front () =
  let l = D.create () in
  let _ = D.push_front l 2 in
  let _ = D.push_front l 1 in
  let _ = D.push_back l 3 in
  Alcotest.(check (list int)) "front/back mix" [ 1; 2; 3 ] (D.to_list l);
  match D.find_node (fun v -> v = 2) l with
  | Some n ->
      Alcotest.(check int) "found" 2 (D.value n);
      D.remove l n;
      Alcotest.(check (list int)) "after remove" [ 1; 3 ] (D.to_list l)
  | None -> Alcotest.fail "find_node"

let prop_dlist_model =
  let open QCheck in
  Test.make ~name:"dlist behaves like a list under pushes/pops" ~count:200
    (make
       Gen.(
         list_size (int_bound 60)
           (oneof
              [
                map (fun v -> `Push_back v) (int_bound 100);
                map (fun v -> `Push_front v) (int_bound 100);
                return `Pop;
              ])))
    (fun ops ->
      let l = D.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | `Push_back v ->
              ignore (D.push_back l v);
              model := !model @ [ v ]
          | `Push_front v ->
              ignore (D.push_front l v);
              model := v :: !model
          | `Pop -> (
              let got = D.pop_front l in
              match !model with
              | [] -> assert (got = None)
              | x :: rest ->
                  assert (got = Some x);
                  model := rest));
          D.to_list l = !model && D.length l = List.length !model)
        ops)

let test_smootherstep () =
  Alcotest.(check (float 1e-9)) "0" 0.0 (Support.Smootherstep.curve 0.0);
  Alcotest.(check (float 1e-9)) "1" 1.0 (Support.Smootherstep.curve 1.0);
  Alcotest.(check (float 1e-9)) "mid" 0.5 (Support.Smootherstep.curve 0.5);
  Alcotest.(check bool) "clamped below" true (Support.Smootherstep.curve (-1.0) = 0.0);
  Alcotest.(check bool) "clamped above" true (Support.Smootherstep.curve 2.0 = 1.0);
  Alcotest.(check int) "limit start" 1000
    (Support.Smootherstep.limit ~total:1000 ~elapsed_fraction:0.0);
  Alcotest.(check int) "limit end" 0 (Support.Smootherstep.limit ~total:1000 ~elapsed_fraction:1.0)

let prop_smootherstep_monotone =
  let open QCheck in
  Test.make ~name:"smootherstep is monotone" ~count:200
    (make Gen.(pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Support.Smootherstep.curve lo <= Support.Smootherstep.curve hi +. 1e-12)

let suite =
  [
    Alcotest.test_case "dlist basic" `Quick test_dlist_basic;
    Alcotest.test_case "dlist push_front/find" `Quick test_dlist_front;
    QCheck_alcotest.to_alcotest prop_dlist_model;
    Alcotest.test_case "smootherstep endpoints" `Quick test_smootherstep;
    QCheck_alcotest.to_alcotest prop_smootherstep_monotone;
  ]
