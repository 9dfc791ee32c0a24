(** The post-verification muGraph optimizer (paper §6): tensor layouts,
    operator scheduling and memory planning for every custom kernel of a
    verified muGraph. These passes never change the computed function —
    which is exactly why Mirage defers them until after verification. *)

type kernel_report = {
  node : int;
  schedule : Schedule.t;
  memplan : Memplan.plan;
  layout : Layout_opt.assignment option;
}

type report = {
  kernels : kernel_report list;
  syncthreads : int;  (** total barriers per graph execution *)
  smem_peak_bytes : int;  (** max over custom kernels after planning *)
  layout_cost : float;
  layout_naive_cost : float;
  degraded_layouts : int;
      (** kernels whose layout solve fell back (incumbent or greedy) *)
  degraded_memplans : int;  (** kernels planned first-fit, not optimally *)
}

val optimize :
  ?budget:Obs.Budget.t -> Gpusim.Device.t -> Mugraph.Graph.kernel_graph -> report
(** [budget] bounds layout selection and memory planning: past the
    deadline both degrade (ILP incumbent / greedy layouts, first-fit
    plans) instead of running to completion or crashing. *)

val layouts : report -> (int * Layout_opt.assignment) list
(** Each custom kernel's layout assignment, keyed by its node: the form
    [Impir.Lower.lower ~layouts] takes. *)

val fits : Gpusim.Device.t -> report -> bool
(** Planned peak fits the device's shared memory. *)

val summary : report -> string
