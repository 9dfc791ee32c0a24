(* Search-facing alias for the shared budget type, built from a search
   config. The implementation lives in Obs so the ILP and layout
   optimizer, which cannot depend on search, can poll the same
   deadline. *)

include Obs.Budget

let of_config (c : Config.t) =
  create ~time_budget_s:c.Config.time_budget_s ~node_budget:c.Config.node_budget
    ()
