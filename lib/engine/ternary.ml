module D = Netlist.Design
module C = Netlist.Cell

type input_class = Zero | One | Free

(* values: 0, 1, 2 = X *)
let x = 2

let join a b = if a = b then a else x

let eval_cell kind (ins : int array) =
  let all v = Array.for_all (( = ) v) ins in
  let any v = Array.exists (( = ) v) ins in
  let and_n () = if any 0 then 0 else if all 1 then 1 else x in
  let or_n () = if any 1 then 1 else if all 0 then 0 else x in
  let inv = function 0 -> 1 | 1 -> 0 | _ -> x in
  match kind with
  | C.Const0 -> 0
  | C.Const1 -> 1
  | C.Buf -> ins.(0)
  | C.Inv -> inv ins.(0)
  | C.And2 | C.And3 | C.And4 -> and_n ()
  | C.Or2 | C.Or3 | C.Or4 -> or_n ()
  | C.Nand2 | C.Nand3 -> inv (and_n ())
  | C.Nor2 | C.Nor3 -> inv (or_n ())
  | C.Xor2 ->
      if ins.(0) = x || ins.(1) = x then x else ins.(0) lxor ins.(1)
  | C.Xnor2 ->
      if ins.(0) = x || ins.(1) = x then x else inv (ins.(0) lxor ins.(1))
  | C.Mux2 -> (
      match ins.(0) with
      | 0 -> ins.(1)
      | 1 -> ins.(2)
      | _ -> join ins.(1) ins.(2))
  | C.Aoi21 ->
      let a = if ins.(0) = 0 || ins.(1) = 0 then 0
              else if ins.(0) = 1 && ins.(1) = 1 then 1 else x in
      if a = 1 || ins.(2) = 1 then 0
      else if a = 0 && ins.(2) = 0 then 1 else x
  | C.Oai21 ->
      let o = if ins.(0) = 1 || ins.(1) = 1 then 1
              else if ins.(0) = 0 && ins.(1) = 0 then 0 else x in
      if o = 0 || ins.(2) = 0 then 1
      else if o = 1 && ins.(2) = 1 then 0 else x
  | C.Dff -> invalid_arg "Ternary: sequential"

let fixpoint ?max_iterations d ~classify =
  let sched = Netlist.Topo.schedule d in
  let n_nets = D.num_nets d in
  let values = Array.make n_nets x in
  values.(D.net_false) <- 0;
  values.(D.net_true) <- 1;
  List.iter
    (fun (_, n) ->
      values.(n) <- (match classify n with Zero -> 0 | One -> 1 | Free -> x))
    (D.inputs d);
  (* flop state lattice, initialised to the reset values *)
  Array.iter
    (fun ci ->
      let c = D.cell d ci in
      values.(c.D.out) <- Bool.to_int c.D.init)
    sched.Netlist.Topo.flops;
  let eval_comb () =
    Array.iter
      (fun ci ->
        let c = D.cell d ci in
        values.(c.D.out) <- eval_cell c.D.kind (Array.map (fun n -> values.(n)) c.D.ins))
      sched.Netlist.Topo.order
  in
  let limit =
    match max_iterations with
    | Some m -> m
    | None -> (2 * Array.length sched.Netlist.Topo.flops) + 4
  in
  let rec fixpoint i =
    if i > limit then failwith "Ternary.fixpoint: no convergence";
    eval_comb ();
    let changed = ref false in
    Array.iter
      (fun ci ->
        let c = D.cell d ci in
        let next = join values.(c.D.out) values.(c.D.ins.(0)) in
        if next <> values.(c.D.out) then begin
          values.(c.D.out) <- next;
          changed := true
        end)
      sched.Netlist.Topo.flops;
    if !changed then fixpoint (i + 1)
  in
  fixpoint 0;
  eval_comb ();
  (sched, values)

let definite d values =
  let n_nets = Array.length values in
  let is_input = Array.make n_nets false in
  List.iter (fun (_, n) -> is_input.(n) <- true) (D.inputs d);
  let out = ref [] in
  for n = n_nets - 1 downto 2 do
    if (not is_input.(n)) && values.(n) <> x then
      out := Candidate.Const (n, values.(n) = 1) :: !out
  done;
  !out

let constants ?max_iterations d ~classify =
  definite d (snd (fixpoint ?max_iterations d ~classify))
