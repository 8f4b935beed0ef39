type params = { iterations : int; objects : int; size : int }

let default = { iterations = 10; objects = 1000; size = 64 }

(* Object [i] is next to allocate, or to free when [freeing]. *)
type state = { mutable iter : int; mutable freeing : bool; mutable i : int }

let run (inst : Alloc_api.Instance.t) ?(params = default) () =
  let open Alloc_api.Instance in
  Driver.require_slots inst params.objects;
  let states = Array.init inst.threads (fun _ -> { iter = 0; freeing = false; i = 0 }) in
  let step ~tid () =
    let st = states.(tid) in
    if st.iter >= params.iterations then false
    else begin
      let dest = Driver.slot inst ~tid st.i in
      if st.freeing then inst.free ~tid ~dest
      else ignore (inst.malloc ~tid ~size:params.size ~dest);
      if st.i + 1 < params.objects then st.i <- st.i + 1
      else begin
        if st.freeing then st.iter <- st.iter + 1;
        st.freeing <- not st.freeing;
        st.i <- 0
      end;
      true
    end
  in
  Driver.run inst
    ~ops_of:(fun ~tid:_ -> 2 * params.iterations * params.objects)
    ~step_of:step
