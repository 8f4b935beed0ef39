type thread = { clock : Clock.t; step : unit -> bool }

(* Binary min-heap of runnable thread indices, keyed by (clock, index).
   The index tie-break makes the pop order identical to the former
   linear scan (which took the first thread with the strictly smallest
   clock), so schedules — and therefore every simulated result — are
   unchanged; each step costs O(log n) instead of O(n). A step only
   advances its own thread's clock, so re-keying after a step is a
   single sift-down from the root. *)
let run_min_clock ~telem ~step_name threads n =
  let heap = Array.init n (fun i -> i) in
  let size = ref n in
  let lt i j =
    let a = Clock.now threads.(i).clock and b = Clock.now threads.(j).clock in
    a < b || (a = b && i < j)
  in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let m = if l + 1 < !size && lt heap.(l + 1) heap.(l) then l + 1 else l in
      if lt heap.(m) heap.(i) then begin
        let tmp = heap.(m) in
        heap.(m) <- heap.(i);
        heap.(i) <- tmp;
        sift_down m
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift_down i
  done;
  while !size > 0 do
    let i = heap.(0) in
    let clock = threads.(i).clock in
    let before = Clock.now clock in
    let live = threads.(i).step () in
    (match telem with
    | None -> ()
    | Some t ->
        Telemetry.span t ~tid:(Clock.id clock) ~name:step_name ~ts:before
          ~dur:(Clock.now clock -. before));
    if live then sift_down 0
    else begin
      decr size;
      heap.(0) <- heap.(!size);
      if !size > 0 then sift_down 0
    end
  done

(* Seeded pick rule: step a uniformly chosen runnable thread, whatever
   its clock. Runnable indices live in the prefix [live.(0 .. size-1)];
   a finished thread is swapped out of it. Every order this produces is
   a pure function of the generator's seed, so a failing interleaving
   replays and shrinks like any other scenario field. *)
let run_seeded ~telem ~step_name rng threads n =
  let live = Array.init n (fun i -> i) in
  let size = ref n in
  while !size > 0 do
    let k = Rng.int rng !size in
    let i = live.(k) in
    let clock = threads.(i).clock in
    let before = Clock.now clock in
    let alive = threads.(i).step () in
    (match telem with
    | None -> ()
    | Some t ->
        Telemetry.span t ~tid:(Clock.id clock) ~name:step_name ~ts:before
          ~dur:(Clock.now clock -. before));
    if not alive then begin
      decr size;
      live.(k) <- live.(!size)
    end
  done

let run ?telem ?rng threads =
  let n = Array.length threads in
  if n > 0 then begin
    (* With a sink attached, each scheduled step becomes a "run" span:
       [ts] = the thread's clock when picked, [dur] = how far the step
       advanced it. Interned once; emission is outside the step, charges
       nothing, and the [None] path costs one compare per step. *)
    let step_name =
      match telem with Some t -> Telemetry.intern t "run" | None -> -1
    in
    match rng with
    | None -> run_min_clock ~telem ~step_name threads n
    | Some rng -> run_seeded ~telem ~step_name rng threads n
  end

let makespan threads =
  Array.fold_left (fun acc t -> Float.max acc (Clock.now t.clock)) 0.0 threads
