open Tensor
open Mugraph

type state = (Graph.kernel_op, unit, unit) Prefix.state

let tref i = { Graph.node = i; port = 0 }

let tally stats =
  Tally.level stats ~name:"kernel"
    Tally.[ Shape; Duplicate; Pruned; Canonical; Unreachable ]

let search (cfg : Config.t) ~spec ~memo ~limits ~budget ?spawn ~emit () =
  let out_shapes = Infer.output_shapes spec in
  let n_inputs = List.length (Graph.input_names spec) in
  let make op vs =
    match op with
    | Graph.K_prim p -> Prefix.prim_value p vs ()
    | _ -> invalid_arg "Kernel_enum.make"
  in
  (* Every output needs a matching operator entry (not an input); the
     first match is the output. *)
  let complete tl (st : state) =
    let matches =
      List.mapi
        (fun j target ->
          let found = ref None in
          for i = Array.length st.entries - 1 downto n_inputs do
            let v = st.entries.(i).value in
            if v.goals land (1 lsl j) <> 0 && Shape.equal v.shape target then
              found := Some i
          done;
          !found)
        out_shapes
    in
    if List.for_all Option.is_some matches then begin
      let outputs = List.map (fun m -> tref (Option.get m)) matches in
      let knodes =
        Array.map
          (fun (e : _ Prefix.entry) ->
            { Graph.kop = e.op; kins = List.map tref e.ins })
          st.entries
      in
      let g = { Graph.knodes; outputs } in
      match Graph.validate g with
      | () ->
          if Memory.check limits g then begin
            Tally.candidate tl;
            emit g
          end
      | exception Graph.Ill_formed _ -> ()
    end
  in
  let level =
    {
      Prefix.name = "kernel";
      fault = "enum.kernel";
      max_ops = cfg.Config.max_kernel_ops;
      rank_first = true;
      menu = cfg.Config.kernel_op_menu;
      prim = (fun p -> Graph.K_prim p);
      scope = 0;
      extra = (fun _ -> []);
      make;
      admit = (fun _ _ -> None);
      child = (fun _ _ _ -> Ok ());
    }
  in
  let inputs =
    Array.of_list
    @@ List.map2
      (fun name shape ->
        {
          Prefix.op = Graph.K_input { name; shape };
          ins = [];
          value =
            Prefix.value (Shape.create shape) (Absexpr.Nf.nf_var name) ();
        })
      (Graph.input_names spec) (Graph.input_shapes spec)
  in
  Prefix.run
    (Prefix.engine level cfg ~memo ~budget)
    ?spawn ~weight:1 ~complete inputs ()
