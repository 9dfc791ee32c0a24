open Impir
open Mugraph

let shape_str s =
  String.concat "][" (Array.to_list (Array.map string_of_int s))

let iexp_str = Ir.iexp_to_string

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec vexp_str (e : Ir.vexp) =
  match e with
  | Ir.Const f -> float_str f
  | Ir.Temp v -> v
  | Ir.Load (b, i) -> Printf.sprintf "%s[%s]" b.Ir.bname (iexp_str i)
  | Ir.Bin (op, a, b) ->
      let s =
        match op with
        | Op.Add -> "+"
        | Op.Mul -> "*"
        | Op.Div -> "/"
        | Op.Sub -> "-"
      in
      Printf.sprintf "(%s %s %s)" (vexp_str a) s (vexp_str b)
  | Ir.Un (op, a) ->
      let f =
        match op with
        | Op.Exp -> "__builtin_exp"
        | Op.Sqrt -> "__builtin_sqrt"
        | Op.Sqr -> "mir_sqr"
        | Op.Silu -> "mir_silu"
        | Op.Relu -> "mir_relu"
      in
      Printf.sprintf "%s(%s)" f (vexp_str a)

let rec emit_stmt buf indent (s : Ir.stmt) =
  let pad = String.make indent ' ' in
  match s with
  | Ir.Comment c -> Buffer.add_string buf (Printf.sprintf "%s/* %s */\n" pad c)
  | Ir.Barrier ->
      Buffer.add_string buf (Printf.sprintf "%s/* barrier */\n" pad)
  | Ir.Decl { v; init } ->
      Buffer.add_string buf
        (Printf.sprintf "%sdouble %s = %s;\n" pad v (vexp_str init))
  | Ir.Assign { v; e } ->
      Buffer.add_string buf (Printf.sprintf "%s%s = %s;\n" pad v (vexp_str e))
  | Ir.Store { dst; idx; e } ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s[%s] = %s;\n" pad dst.Ir.bname (iexp_str idx)
           (vexp_str e))
  | Ir.Store_add { dst; idx; e } ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s[%s] += %s;\n" pad dst.Ir.bname (iexp_str idx)
           (vexp_str e))
  | Ir.For { v; n; kind; body } ->
      let note =
        match kind with
        | Ir.Grid a -> Printf.sprintf " /* grid axis %d */" a
        | Ir.Forloop _ -> " /* data-stream loop */"
        | Ir.Serial | Ir.Reduce -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "%sfor (int %s = 0; %s < %d; ++%s) {%s\n" pad v v n v
           note);
      List.iter (emit_stmt buf (indent + 2)) body;
      Buffer.add_string buf (Printf.sprintf "%s}\n" pad)

let emit_kernel buf (k : Ir.kernel) =
  let param (j : int) (b : Ir.buf) =
    Printf.sprintf "%sdouble *%s"
      (if j < k.Ir.n_inputs then "const " else "")
      b.Ir.bname
  in
  Buffer.add_string buf
    (Printf.sprintf "static void %s(%s) {\n" k.Ir.kname
       (String.concat ", " (List.mapi param k.Ir.params)));
  List.iter
    (fun ((b : Ir.buf), off) ->
      Buffer.add_string buf
        (Printf.sprintf "  static double %s[%d]; /* [%s] %s, smem+%d */\n"
           b.Ir.bname (Ir.numel b) (shape_str b.Ir.shape)
           (Tensor.Layout.to_string b.Ir.layout)
           off))
    k.Ir.shared;
  List.iter
    (fun (b : Ir.buf) ->
      Buffer.add_string buf
        (Printf.sprintf "  double %s[%d]; /* [%s] register file */\n"
           b.Ir.bname (Ir.numel b) (shape_str b.Ir.shape)))
    k.Ir.locals;
  List.iter (emit_stmt buf 2) k.Ir.body;
  Buffer.add_string buf "}\n\n"

(* The unary operators a program applies, to emit only the helpers it
   calls. *)
let unaries (p : Ir.program) =
  let rec vexp acc (e : Ir.vexp) =
    match e with
    | Ir.Un (op, a) -> vexp (if List.mem op acc then acc else op :: acc) a
    | Ir.Bin (_, a, b) -> vexp (vexp acc a) b
    | Ir.Const _ | Ir.Temp _ | Ir.Load _ -> acc
  in
  let rec stmt acc (s : Ir.stmt) =
    match s with
    | Ir.For { body; _ } -> List.fold_left stmt acc body
    | Ir.Decl { init = e; _ }
    | Ir.Assign { e; _ }
    | Ir.Store { e; _ }
    | Ir.Store_add { e; _ } ->
        vexp acc e
    | Ir.Barrier | Ir.Comment _ -> acc
  in
  List.fold_left
    (fun acc (k : Ir.kernel) -> List.fold_left stmt acc k.Ir.body)
    [] p.Ir.kernels

let helpers =
  [
    (Op.Sqr, "static double mir_sqr(double x) { return x * x; }\n");
    ( Op.Silu,
      "static double mir_silu(double x) { return x / (1.0 + \
       __builtin_exp(-x)); }\n" );
    ( Op.Relu,
      "static double mir_relu(double x) { return x > 0.0 ? x : 0.0; }\n" );
  ]

let emit (p : Ir.program) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "/* Mirage runnable C backend: %s */\n\n" p.Ir.pname);
  let used = unaries p in
  let helpers = List.filter (fun (op, _) -> List.mem op used) helpers in
  List.iter (fun (_, src) -> Buffer.add_string buf src) helpers;
  if helpers <> [] then Buffer.add_string buf "\n";
  (* Inter-kernel temporaries live in BSS so large reduced workloads
     cannot overflow the stack. *)
  if p.Ir.temps <> [] then begin
    Buffer.add_string buf "/* inter-kernel temporaries */\n";
    List.iter
      (fun (b : Ir.buf) ->
        Buffer.add_string buf
          (Printf.sprintf "static double %s[%d]; /* [%s] */\n" b.Ir.bname
             (Ir.numel b) (shape_str b.Ir.shape)))
      p.Ir.temps;
    Buffer.add_string buf "\n"
  end;
  List.iter (emit_kernel buf) p.Ir.kernels;
  (* Harness metadata *)
  let sizes which bufs =
    Buffer.add_string buf
      (Printf.sprintf "long mirage_%s_size(int i) {\n  switch (i) {\n" which);
    List.iteri
      (fun j (b : Ir.buf) ->
        Buffer.add_string buf
          (Printf.sprintf "  case %d: return %d;\n" j (Ir.numel b)))
      bufs;
    Buffer.add_string buf "  default: return -1;\n  }\n}\n\n"
  in
  Buffer.add_string buf
    (Printf.sprintf "int mirage_num_inputs(void) { return %d; }\n\n"
       (List.length p.Ir.inputs));
  sizes "input" p.Ir.inputs;
  Buffer.add_string buf
    (Printf.sprintf "int mirage_num_outputs(void) { return %d; }\n\n"
       (List.length p.Ir.outputs));
  sizes "output" p.Ir.outputs;
  (* Entry: program inputs arrive as in[0..]; map each global buffer
     name to its C expression. *)
  let name_of =
    let tbl = Hashtbl.create 16 in
    List.iteri
      (fun j (b : Ir.buf) ->
        Hashtbl.replace tbl b.Ir.bname (Printf.sprintf "in[%d]" j))
      p.Ir.inputs;
    List.iter
      (fun (b : Ir.buf) -> Hashtbl.replace tbl b.Ir.bname b.Ir.bname)
      p.Ir.temps;
    fun (b : Ir.buf) ->
      match Hashtbl.find_opt tbl b.Ir.bname with
      | Some s -> s
      | None -> b.Ir.bname
  in
  Buffer.add_string buf
    "void mirage_entry(const double **in, double **out) {\n";
  List.iter
    (fun (kname, args) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s(%s);\n" kname
           (String.concat ", " (List.map name_of args))))
    p.Ir.calls;
  List.iteri
    (fun j (b : Ir.buf) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  __builtin_memcpy(out[%d], %s, %d * sizeof(double));\n" j
           (name_of b) (Ir.numel b)))
    p.Ir.outputs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let loc s = List.length (String.split_on_char '\n' s)
