module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

let search_steps n =
  let rec go steps n = if n <= 1 then steps else go (steps + 1) (n lsr 1) in
  go 1 n

module Make (Ord : ORDERED) = struct
  type key = Ord.t
  type color = Red | Black

  type 'a node =
    | Leaf
    | Node of {
        mutable color : color;
        mutable key : key;
        mutable value : 'a;
        mutable left : 'a node;
        mutable right : 'a node;
        mutable parent : 'a node;
      }

  type 'a t = { mutable root : 'a node; mutable size : int }

  let create () = { root = Leaf; size = 0 }
  let is_empty t = t.root == Leaf
  let cardinal t = t.size

  (* Leaves are black; setters on a leaf do nothing. A direction [l] is
     true for left: [child l n] is [n]'s left child, [child (not l) n] its
     right one, so each fix-up case is written once for both mirrors. *)
  let is_red = function Node { color = Red; _ } -> true | Node _ | Leaf -> false
  let parent = function Node r -> r.parent | Leaf -> Leaf
  let child l = function Node r -> if l then r.left else r.right | Leaf -> Leaf
  let set_black = function Node r -> r.color <- Black | Leaf -> ()
  let set_parent n p = match n with Node r -> r.parent <- p | Leaf -> ()

  (* Put [v] where [u] hangs: under [u]'s parent, or at the root. *)
  let replace_child t u v =
    (match parent u with
    | Leaf -> t.root <- v
    | Node p -> if p.left == u then p.left <- v else p.right <- v);
    set_parent v (parent u)

  (* Rotate [x] down towards [l]: its child on the other side takes its
     place. *)
  let rotate t l x =
    match (x, child (not l) x) with
    | Node xr, (Node yr as y) ->
        let inner = if l then yr.left else yr.right in
        if l then xr.right <- inner else xr.left <- inner;
        set_parent inner x;
        replace_child t x y;
        if l then yr.left <- x else yr.right <- x;
        xr.parent <- y
    | _ -> assert false

  (* --- insertion (CLRS RB-INSERT-FIXUP) ---------------------------------- *)

  (* [z] is red; restore "no red node has a red child" above it. *)
  let rec insert_fixup t z =
    match parent z with
    | Node ({ color = Red; parent = Node gr as g; _ } as pr) as p ->
        let l = p == gr.left in
        let uncle = child (not l) g in
        if is_red uncle then begin
          pr.color <- Black;
          set_black uncle;
          gr.color <- Red;
          insert_fixup t g
        end
        else begin
          let m = if z == child (not l) p then (rotate t l p; z) else p in
          set_black m;
          gr.color <- Red;
          rotate t (not l) g
        end
    | Node _ | Leaf -> ()

  let rec insert_below t key value n =
    match n with
    | Leaf -> assert false
    | Node r ->
        let c = Ord.compare key r.key in
        if c = 0 then begin
          r.key <- key;
          r.value <- value
        end
        else
          match if c < 0 then r.left else r.right with
          | Node _ as child -> insert_below t key value child
          | Leaf ->
              let z = Node { color = Red; key; value; left = Leaf; right = Leaf; parent = n } in
              if c < 0 then r.left <- z else r.right <- z;
              t.size <- t.size + 1;
              insert_fixup t z;
              set_black t.root

  let insert t key value =
    match t.root with
    | Leaf ->
        t.root <- Node { color = Black; key; value; left = Leaf; right = Leaf; parent = Leaf };
        t.size <- 1
    | root -> insert_below t key value root

  (* --- deletion (CLRS RB-DELETE) ----------------------------------------- *)

  let rec find_node key n =
    match n with
    | Leaf -> Leaf
    | Node r ->
        let c = Ord.compare key r.key in
        if c = 0 then n else find_node key (if c < 0 then r.left else r.right)

  let rec min_node n = match n with Node { left = Node _ as l; _ } -> min_node l | _ -> n
  let rec max_node n = match n with Node { right = Node _ as r; _ } -> max_node r | _ -> n

  (* [x] (possibly a leaf, hence the explicit parent [xp]) carries an
     extra black; push it up or absorb it with rotations. *)
  let rec remove_fixup t x xp =
    if is_red x || x == t.root then set_black x
    else
      match xp with
      | Leaf -> ()
      | Node pr -> (
          let l = x == pr.left in
          if is_red (child (not l) xp) then begin
            set_black (child (not l) xp);
            pr.color <- Red;
            rotate t l xp
          end;
          match child (not l) xp with
          | Leaf -> assert false
          | Node wr as w ->
              if (not (is_red wr.left)) && not (is_red wr.right) then begin
                wr.color <- Red;
                remove_fixup t xp pr.parent
              end
              else begin
                if not (is_red (child (not l) w)) then begin
                  set_black (child l w);
                  wr.color <- Red;
                  rotate t (not l) w
                end;
                let w = child (not l) xp in
                (match w with Node wr -> wr.color <- pr.color | Leaf -> ());
                set_black (child (not l) w);
                pr.color <- Black;
                rotate t l xp
              end)

  let remove t key =
    match find_node key t.root with
    | Leaf -> ()
    | Node zr as z ->
        t.size <- t.size - 1;
        (match (zr.left, zr.right) with
        | Leaf, x | x, Leaf ->
            let xp = zr.parent in
            replace_child t z x;
            if zr.color = Black then remove_fixup t x xp
        | _, right -> (
            (* Two children: the successor [y] takes [z]'s place and colour. *)
            match min_node right with
            | Leaf -> assert false
            | Node yr as y ->
                let y_black = yr.color = Black in
                let x = yr.right in
                let xp =
                  if yr.parent == z then y
                  else begin
                    let yp = yr.parent in
                    replace_child t y x;
                    yr.right <- zr.right;
                    set_parent yr.right y;
                    yp
                  end
                in
                replace_child t z y;
                yr.left <- zr.left;
                set_parent yr.left y;
                yr.color <- zr.color;
                if y_black then remove_fixup t x xp));
        (* A removed node must not keep the tree reachable. *)
        zr.left <- Leaf;
        zr.right <- Leaf;
        zr.parent <- Leaf

  (* --- queries ----------------------------------------------------------- *)

  let binding = function Leaf -> None | Node r -> Some (r.key, r.value)
  let find_opt t key = match find_node key t.root with Leaf -> None | Node r -> Some r.value
  let mem t key = find_node key t.root != Leaf
  let min_binding_opt t = binding (min_node t.root)
  let max_binding_opt t = binding (max_node t.root)

  (* Descents that remember the best candidate node seen so far. *)
  let rec geq key best n =
    match n with
    | Leaf -> best
    | Node r ->
        let c = Ord.compare key r.key in
        if c = 0 then n else if c < 0 then geq key n r.left else geq key best r.right

  let rec leq key best n =
    match n with
    | Leaf -> best
    | Node r ->
        let c = Ord.compare key r.key in
        if c = 0 then n else if c < 0 then leq key best r.left else leq key n r.right

  let rec lt key best n =
    match n with
    | Leaf -> best
    | Node r -> if Ord.compare key r.key <= 0 then lt key best r.left else lt key n r.right

  let find_first_geq t key = binding (geq key Leaf t.root)
  let find_last_leq t key = binding (leq key Leaf t.root)
  let find_last_lt t key = binding (lt key Leaf t.root)

  let rec iter_node f = function
    | Leaf -> ()
    | Node r ->
        iter_node f r.left;
        f r.key r.value;
        iter_node f r.right

  let rec fold_node f n acc =
    match n with
    | Leaf -> acc
    | Node r -> fold_node f r.right (f r.key r.value (fold_node f r.left acc))

  let iter f t = iter_node f t.root
  let fold f t init = fold_node f t.root init
  let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

  let invariants_ok t =
    let count = ref 0 in
    (* Returns the black height; [lo]/[hi] are the bounding ancestors
       (leaves when unbounded). Raises on a violation. *)
    let rec check up lo hi n =
      match n with
      | Leaf -> 1
      | Node r ->
          incr count;
          assert (r.parent == up);
          (match lo with Node l -> assert (Ord.compare l.key r.key < 0) | Leaf -> ());
          (match hi with Node h -> assert (Ord.compare r.key h.key < 0) | Leaf -> ());
          assert (not (r.color = Red && (is_red r.left || is_red r.right)));
          let bl = check n lo n r.left in
          assert (bl = check n n hi r.right);
          bl + (if r.color = Black then 1 else 0)
    in
    match check Leaf Leaf Leaf t.root with
    | _ -> (not (is_red t.root)) && !count = t.size
    | exception Assert_failure _ -> false
end
