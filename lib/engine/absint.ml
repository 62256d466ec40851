module D = Netlist.Design
module C = Netlist.Cell

type t = {
  design : D.t;
  flops : int array;
  values : int array;  (* post-fixpoint ternary value of every net *)
}

let run d =
  let sched, values = Ternary.fixpoint d ~classify:(fun _ -> Ternary.Free) in
  { design = d; flops = sched.Netlist.Topo.flops; values }

let constants t = Ternary.definite t.design t.values

let stuck_registers t =
  let out = ref [] in
  Array.iter
    (fun ci ->
      let c = D.cell t.design ci in
      if t.values.(c.D.out) <> Ternary.x then
        out := (ci, t.values.(c.D.out) = 1) :: !out)
    t.flops;
  List.rev !out

let dead_writes t =
  let d = t.design in
  let out = ref [] in
  Array.iter
    (fun ci ->
      let c = D.cell d ci in
      match D.driver d c.D.ins.(0) with
      | Some mi -> (
          let m = D.cell d mi in
          match m.D.kind with
          | C.Mux2 when t.values.(m.D.ins.(0)) <> Ternary.x ->
              out := (ci, t.values.(m.D.ins.(0)) = 1) :: !out
          | _ -> ())
      | None -> ())
    t.flops;
  List.rev !out
