(* The one counterexample search behind the fuzzer and the model
   checker: the lowest failing case wins for any domain count, one
   domain stops at the first failure, an exception at the lowest
   failure is re-raised, and both oracles print the same verdict at
   any domain count. *)

module S = Support.Search

(* Cases are ints; a case fails when it is at least [limit], and shrinks
   by decrements, so a failing case shrinks to exactly [limit]. *)
let at_least limit c = if c >= limit then Error (Printf.sprintf "%d >= %d" c limit) else Ok ()
let decrements c = [ c - 1; c - 2 ]

let show = function
  | None -> "ok"
  | Some { S.original; shrunk; reason } ->
      Printf.sprintf "original=%d shrunk=%d reason=%s" original shrunk reason

let test_lowest_failure () =
  let cases = [| 3; 1; 12; 5; 40; 11 |] in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "%d domain(s)" domains)
        "original=12 shrunk=10 reason=10 >= 10"
        (show (S.run ~domains ~test:(at_least 10) ~candidates:decrements cases)))
    [ 1; 3 ];
  (* Many cases, failures spread out: the lowest index is reported. *)
  let cases = Array.init 200 Fun.id in
  let test c = if c mod 50 = 49 then Error "hit" else Ok () in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "200 cases, %d domain(s)" domains)
        "original=49 shrunk=49 reason=hit"
        (show (S.run ~domains ~test ~candidates:(fun _ -> []) cases)))
    [ 1; 3 ];
  Alcotest.(check string) "all pass" "ok"
    (show (S.run ~domains:3 ~test:(at_least 1000) ~candidates:decrements cases));
  Alcotest.(check string) "no cases" "ok"
    (show (S.run ~domains:3 ~test:(at_least 0) ~candidates:decrements [||]));
  (* A candidate that always still fails: the shrink stops after the
     round bound. *)
  Alcotest.(check string) "shrink rounds are bounded" "original=0 shrunk=64 reason=64 >= 0"
    (show (S.run ~test:(at_least 0) ~candidates:(fun c -> [ c + 1 ]) [| 0 |]))

let test_one_domain_stops () =
  let ran domains =
    let ran = Array.make 20 false in
    let test i =
      ran.(i) <- true;
      if i = 5 then Error "five" else Ok ()
    in
    ignore
      (S.run ~domains ~test ~candidates:(fun _ -> []) (Array.init 20 Fun.id)
        : int S.counterexample option);
    ran
  in
  Alcotest.(check (array bool))
    "1 domain: cases 0..5 ran, none after the failure"
    (Array.init 20 (fun i -> i <= 5))
    (ran 1);
  (* With several domains every case below the failure still runs. *)
  Alcotest.(check bool) "3 domains: cases 0..5 ran" true
    (Array.for_all Fun.id (Array.sub (ran 3) 0 6))

exception Boom of int

let test_exception_reraised () =
  let cases = Array.init 12 Fun.id in
  List.iter
    (fun domains ->
      (* An exception at the lowest failure is the verdict... *)
      (match
         S.run ~domains
           ~test:(fun i ->
             if i = 4 then raise (Boom i) else if i = 7 then Error "seven" else Ok ())
           ~candidates:(fun _ -> [])
           cases
       with
      | exception Boom i -> Alcotest.(check int) "re-raised at the lowest index" 4 i
      | _ -> Alcotest.failf "%d domain(s): expected Boom" domains);
      (* ...but one above a lower failure is not. *)
      Alcotest.(check string)
        (Printf.sprintf "%d domain(s): exception above the lowest failure" domains)
        "original=4 shrunk=4 reason=four"
        (show
           (S.run ~domains
              ~test:(fun i ->
                if i = 7 then raise (Boom i) else if i = 4 then Error "four" else Ok ())
              ~candidates:(fun _ -> [])
              cases)))
    [ 1; 3 ]

(* Out-of-range domain counts are refused before any case runs (and so
   before any domain is spawned); one case never spawns a domain, so
   the bound itself is accepted here at no cost. *)
let test_domains_rejected () =
  List.iter
    (fun domains ->
      match S.run ~domains ~test:(at_least 0) ~candidates:decrements [| 1 |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "domains=%d accepted" domains)
    [ 0; -1; S.max_domains + 1; max_int ];
  Alcotest.(check string) "max_domains accepted" "original=1 shrunk=0 reason=0 >= 0"
    (show (S.run ~domains:S.max_domains ~test:(at_least 0) ~candidates:decrements [| 1 |]))

(* Both oracles give the same verdict at any domain count. The fuzz
   verdict is pinned to the plans of the one seeded stream: the
   sequential fuzzer's. *)
let test_check_domain_independent () =
  let check ?mutation domains =
    match
      Check.Runner.check ?mutation ~domains ~alloc:"NVAlloc-LOG" ~seed:5 ~runs:6 ~ops:300
        ~threads:2 ()
    with
    | None -> "ok"
    | Some c ->
        Printf.sprintf "%s <- %s: %s"
          (Check.History.to_string c.S.shrunk)
          (Check.History.to_string c.S.original)
          c.S.reason
  in
  Alcotest.(check string) "clean check passes" "ok" (check 1);
  Alcotest.(check string) "clean check, 1 vs 3 domains" "ok" (check 3);
  Alcotest.(check string) "clean check, 1 vs 4 domains" "ok" (check 4);
  let header = check ~mutation:Nvalloc_core.Mutation.Header 1 in
  Alcotest.(check bool) "header mutation caught" true (header <> "ok");
  Alcotest.(check string) "header check, 1 vs 3 domains" header
    (check ~mutation:Nvalloc_core.Mutation.Header 3)

let test_fuzz_domain_independent () =
  let plan = Fault.Plan.to_string in
  let fuzz ?mutation ?variant ~seed ~runs domains =
    match Fault.Fuzz.fuzz ?mutation ?variant ~domains ~seed ~runs () with
    | None -> "ok"
    | Some c -> Printf.sprintf "%s <- %s: %s" (plan c.S.shrunk) (plan c.S.original) c.S.reason
  in
  Alcotest.(check string) "clean fuzz passes" "ok" (fuzz ~seed:9 ~runs:4 1);
  Alcotest.(check string) "clean fuzz, 1 vs 3 domains" "ok" (fuzz ~seed:9 ~runs:4 3);
  let wal_flush =
    fuzz ~mutation:Nvalloc_core.Mutation.Wal_flush ~variant:Fault.Plan.Log ~seed:1 ~runs:30
  in
  let one = wal_flush 1 in
  let prefix = "v=log seed=966761 ops=1 crash=6 torn=line tseed=445058 rcrash=- <- " in
  Alcotest.(check string) "wal-flush fuzz shrinks to the sequential plan" prefix
    (String.sub one 0 (min (String.length one) (String.length prefix)));
  Alcotest.(check string) "wal-flush fuzz, 1 vs 3 domains" one (wal_flush 3)

let suite =
  [
    Alcotest.test_case "lowest failing index, 1 and 3 domains" `Quick test_lowest_failure;
    Alcotest.test_case "one domain stops at the first failure" `Quick test_one_domain_stops;
    Alcotest.test_case "exception at the lowest failure re-raised" `Quick
      test_exception_reraised;
    Alcotest.test_case "domains out of range rejected" `Quick test_domains_rejected;
  ]

(* The parallel (multi-domain) seed sweeps of the two oracles. *)
let par_suite =
  [
    Alcotest.test_case "check-sweep verdicts identical for any domain count" `Slow
      test_check_domain_independent;
    Alcotest.test_case "fuzz-sweep verdicts identical for any domain count" `Slow
      test_fuzz_domain_independent;
  ]
