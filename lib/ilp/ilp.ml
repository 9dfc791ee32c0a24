type var = int

type cmp = Le | Eq

type lincon = { coeffs : (int * var) list; bound : int; cmp : cmp }

type t = {
  mutable n : int;
  mutable names : string list;  (* reversed *)
  mutable cons : lincon list;
  mutable objective : (float * var) list;
}

type solution = { values : bool array; objective : float }

type outcome =
  | Optimal of solution
  | Feasible_incumbent of solution
  | Node_limit
  | Infeasible

(* Solver telemetry in the process-wide registry (layout selection has no
   per-run registry); resolved lazily so unused programs pay nothing. *)
module Im = struct
  let reg () = Obs.Metrics.default ()

  let solves =
    lazy (Obs.Metrics.counter (reg ()) ~help:"branch-and-bound invocations" "ilp.solves")

  let nodes =
    lazy
      (Obs.Metrics.counter (reg ())
         ~help:"branch-and-bound nodes visited (iterations)" "ilp.nodes")

  let infeasible_cuts =
    lazy
      (Obs.Metrics.counter (reg ())
         ~help:"subtrees cut: some constraint already violated"
         "ilp.cuts.infeasible")

  let bound_cuts =
    lazy
      (Obs.Metrics.counter (reg ())
         ~help:"subtrees cut: objective bound cannot beat incumbent"
         "ilp.cuts.bound")

  let limit_hits =
    lazy
      (Obs.Metrics.counter (reg ())
         ~help:"solves cut short by the node limit or deadline"
         "ilp.limit_hits")
end

let create () = { n = 0; names = []; cons = []; objective = [] }

let num_vars p = p.n

let new_var ?name p =
  let v = p.n in
  p.n <- p.n + 1;
  p.names <-
    (match name with Some s -> s | None -> Printf.sprintf "x%d" v)
    :: p.names;
  v

let check_var p v =
  if v < 0 || v >= p.n then invalid_arg "Ilp: variable out of range"

let add_con p coeffs bound cmp =
  List.iter (fun (_, v) -> check_var p v) coeffs;
  p.cons <- { coeffs; bound; cmp } :: p.cons

let add_le p coeffs b = add_con p coeffs b Le
let add_ge p coeffs b =
  add_con p (List.map (fun (c, v) -> (-c, v)) coeffs) (-b) Le
let add_eq p coeffs b = add_con p coeffs b Eq

let add_exactly_one p vars = add_eq p (List.map (fun v -> (1, v)) vars) 1
let add_implies p x y = add_le p [ (1, x); (-1, y) ] 0
let add_forbid_pair p x y = add_le p [ (1, x); (1, y) ] 1

let set_objective p terms =
  List.iter (fun (_, v) -> check_var p v) terms;
  p.objective <- terms

let var_name p v =
  check_var p v;
  List.nth (List.rev p.names) v

exception Limit_hit

(* Branch and bound over assignment arrays: -1 unknown, 0, 1. *)
let solve_unprofiled ?(node_limit = 10_000_000) ?budget p =
  Obs.Fault.trip "ilp";
  let n = p.n in
  let cons = Array.of_list p.cons in
  let assign = Array.make n (-1) in
  let best : solution option ref = ref None in
  let nodes = ref 0 in
  (* Objective contribution bounds. *)
  let obj_value () =
    List.fold_left
      (fun acc (c, v) -> if assign.(v) = 1 then acc +. c else acc)
      0.0 p.objective
  in
  let obj_lower_bound () =
    (* fixed part + best possible completion (take negatives). *)
    List.fold_left
      (fun acc (c, v) ->
        match assign.(v) with
        | 1 -> acc +. c
        | 0 -> acc
        | _ -> if c < 0.0 then acc +. c else acc)
      0.0 p.objective
  in
  (* A constraint is violated if even its most favorable completion
     fails; satisfied-for-sure if its least favorable completion holds. *)
  let feasible_so_far () =
    Array.for_all
      (fun { coeffs; bound; cmp } ->
        let mini = ref 0 and maxi = ref 0 in
        List.iter
          (fun (c, v) ->
            match assign.(v) with
            | 1 ->
                mini := !mini + c;
                maxi := !maxi + c
            | 0 -> ()
            | _ ->
                if c < 0 then mini := !mini + c else maxi := !maxi + c)
          coeffs;
        match cmp with
        | Le -> !mini <= bound
        | Eq -> !mini <= bound && bound <= !maxi)
      cons
  in
  let better obj =
    match !best with None -> true | Some b -> obj < b.objective -. 1e-12
  in
  let rec go v =
    incr nodes;
    (* Exhausting the limit is not a crash: the caller gets the best
       incumbent found so far and decides how to degrade. The deadline
       is polled every 4096 nodes to keep gettimeofday off the hot
       path. *)
    if !nodes > node_limit then raise Limit_hit;
    (match budget with
    | Some b
      when !nodes land 4095 = 0
           && (Obs.Budget.over_deadline b || Obs.Budget.cancelled b) ->
        Obs.Budget.note b "ilp.deadline";
        raise Limit_hit
    | _ -> ());
    if not (feasible_so_far ()) then
      Obs.Metrics.bump (Lazy.force Im.infeasible_cuts)
    else if not (better (obj_lower_bound ())) then
      Obs.Metrics.bump (Lazy.force Im.bound_cuts)
    else if v = n then begin
      let obj = obj_value () in
      if better obj then
        best := Some { values = Array.map (fun a -> a = 1) assign; objective = obj }
    end
    else begin
      (* Try the cheaper objective direction first. *)
      let c =
        List.fold_left
          (fun acc (c, v') -> if v' = v then acc +. c else acc)
          0.0 p.objective
      in
      let order = if c <= 0.0 then [ 1; 0 ] else [ 0; 1 ] in
      List.iter
        (fun b ->
          assign.(v) <- b;
          go (v + 1);
          assign.(v) <- -1)
        order
    end
  in
  Obs.Metrics.bump (Lazy.force Im.solves);
  let limited = ref false in
  Fun.protect
    ~finally:(fun () ->
      (* counts survive a cut-short solve, so the blown-up solve is
         still visible in the metrics table *)
      Obs.Metrics.add (Lazy.force Im.nodes) !nodes)
    (fun () -> try go 0 with Limit_hit -> limited := true);
  if !limited then Obs.Metrics.bump (Lazy.force Im.limit_hits);
  match (!best, !limited) with
  | Some s, false -> Optimal s
  | Some s, true -> Feasible_incumbent s
  | None, true -> Node_limit
  | None, false -> Infeasible

(* Phase-accounted entry point: branch-and-bound time shows up in the
   search profile wherever the planner is called from. *)
let solve ?node_limit ?budget p =
  Obs.Profile.with_phase "ilp.solve" (fun () ->
      solve_unprofiled ?node_limit ?budget p)

let solve_opt ?node_limit ?budget p =
  match solve ?node_limit ?budget p with
  | Optimal s | Feasible_incumbent s -> Some s
  | Node_limit | Infeasible -> None

let value sol (v : var) = sol.values.(v)
