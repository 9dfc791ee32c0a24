open Impir

type compiled = {
  dir : string;
  c_file : string;
  so_file : string;
  runner : string;
  prog : Ir.program;
  compile_s : float;
}

let runner_source =
  {c|/* Generic driver for Mirage C-backend shared objects.
   Protocol: raw native doubles for each input on stdin, raw doubles
   for each output on stdout. Sizes come from the object's metadata.
   With a second argument N the entry runs N times on the same inputs
   and one more double follows the outputs: the nanoseconds the N runs
   took, read from the monotonic clock. */
#define _POSIX_C_SOURCE 200809L
#include <dlfcn.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

typedef int (*count_fn)(void);
typedef long (*size_fn)(int);
typedef void (*entry_fn)(const double **, double **);

static void *need(void *h, const char *sym) {
  void *p = dlsym(h, sym);
  if (!p) {
    fprintf(stderr, "runner: missing symbol %s: %s\n", sym, dlerror());
    exit(2);
  }
  return p;
}

int main(int argc, char **argv) {
  if (argc != 2 && argc != 3) {
    fprintf(stderr, "usage: runner KERNEL.so [ITERATIONS]\n");
    return 2;
  }
  long iters = argc == 3 ? atol(argv[2]) : 0;
  if (argc == 3 && iters < 1) {
    fprintf(stderr, "runner: ITERATIONS must be positive\n");
    return 2;
  }
  void *h = dlopen(argv[1], RTLD_NOW | RTLD_LOCAL);
  if (!h) {
    fprintf(stderr, "runner: dlopen: %s\n", dlerror());
    return 2;
  }
  count_fn n_in = (count_fn)need(h, "mirage_num_inputs");
  count_fn n_out = (count_fn)need(h, "mirage_num_outputs");
  size_fn in_size = (size_fn)need(h, "mirage_input_size");
  size_fn out_size = (size_fn)need(h, "mirage_output_size");
  entry_fn entry = (entry_fn)need(h, "mirage_entry");
  int ni = n_in(), no = n_out();
  const double **ins = malloc(sizeof(double *) * (ni ? ni : 1));
  double **outs = malloc(sizeof(double *) * (no ? no : 1));
  for (int i = 0; i < ni; i++) {
    long sz = in_size(i);
    double *b = malloc(sizeof(double) * sz);
    if (fread(b, sizeof(double), (size_t)sz, stdin) != (size_t)sz) {
      fprintf(stderr, "runner: short read on input %d (want %ld doubles)\n",
              i, sz);
      return 2;
    }
    ins[i] = b;
  }
  for (int i = 0; i < no; i++)
    outs[i] = malloc(sizeof(double) * out_size(i));
  struct timespec t0, t1;
  clock_gettime(CLOCK_MONOTONIC, &t0);
  for (long k = 0; k < (iters ? iters : 1); k++) entry(ins, outs);
  clock_gettime(CLOCK_MONOTONIC, &t1);
  for (int i = 0; i < no; i++)
    if (fwrite(outs[i], sizeof(double), (size_t)out_size(i), stdout) !=
        (size_t)out_size(i)) {
      fprintf(stderr, "runner: short write on output %d\n", i);
      return 2;
    }
  if (iters) {
    double ns = (double)(t1.tv_sec - t0.tv_sec) * 1e9 +
                (double)(t1.tv_nsec - t0.tv_nsec);
    if (fwrite(&ns, sizeof(double), 1, stdout) != 1) {
      fprintf(stderr, "runner: short write on the timing\n");
      return 2;
    }
  }
  fflush(stdout);
  for (int i = 0; i < ni; i++) free((void *)ins[i]);
  for (int i = 0; i < no; i++) free(outs[i]);
  free(ins);
  free(outs);
  return 0;
}
|c}

(* ------------------------------------------------------------------ *)
(* Process plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with _ -> ""

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

(* Run argv with stdout/stderr captured to files; return exit status. *)
let run_cmd argv ~stderr_file =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let errfd =
    Unix.openfile stderr_file
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Unix.create_process argv.(0) argv devnull Unix.stdout errfd
  in
  Unix.close devnull;
  Unix.close errfd;
  let _, status = Unix.waitpid [] pid in
  status

let status_str = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

let probe_with cflags =
  let dir = Filename.get_temp_dir_name () in
  let base = Filename.temp_file ~temp_dir:dir "mirage_cc_probe" ".c" in
  let out = base ^ ".bin" in
  let err = base ^ ".err" in
  write_file base "int main(void) { return 0; }\n";
  let argv =
    Array.of_list (("cc" :: cflags) @ [ base; "-o"; out ])
  in
  let ok =
    (try run_cmd argv ~stderr_file:err = Unix.WEXITED 0
     with Unix.Unix_error _ -> false)
    && (try run_cmd [| out |] ~stderr_file:err = Unix.WEXITED 0
        with Unix.Unix_error _ -> false)
  in
  List.iter (fun f -> try Sys.remove f with _ -> ()) [ base; out; err ];
  ok

let cc_available =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some b -> b
    | None ->
        let b = probe_with [] in
        memo := Some b;
        b

let asan_available =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some b -> b
    | None ->
        let b = cc_available () && probe_with [ "-fsanitize=address" ] in
        memo := Some b;
        b

let default_cflags () =
  if asan_available () then [ "-O1"; "-fsanitize=address" ] else [ "-O1" ]

(* ------------------------------------------------------------------ *)
(* Compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile ?(cflags = [ "-O1" ]) ~dir (prog : Ir.program) =
  mkdir_p dir;
  let t0 = Unix.gettimeofday () in
  let base = Filename.concat dir prog.Ir.pname in
  let c_file = base ^ ".c" in
  let so_file = base ^ ".so" in
  write_file c_file (C_emit.emit prog);
  let err = base ^ ".cc.err" in
  let argv =
    Array.of_list
      (("cc" :: "-std=c99" :: "-fPIC" :: "-shared" :: cflags)
      @ [ c_file; "-o"; so_file; "-lm" ])
  in
  match run_cmd argv ~stderr_file:err with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cc unavailable: %s" (Unix.error_message e))
  | Unix.WEXITED 0 -> begin
      (* One runner per directory, compiled with the same flags so an
         ASAN-instrumented object links against a matching runtime, and
         named after its source so a directory kept from an older
         runner never serves this protocol. *)
      let runner =
        let tag = Digest.to_hex (Digest.string runner_source) in
        Filename.concat dir ("runner-" ^ String.sub tag 0 8)
      in
      let runner_ok =
        Sys.file_exists runner
        ||
        let rc = Filename.concat dir "runner.c" in
        write_file rc runner_source;
        let rerr = Filename.concat dir "runner.cc.err" in
        let rargv =
          Array.of_list
            (("cc" :: cflags) @ [ rc; "-o"; runner; "-ldl" ])
        in
        run_cmd rargv ~stderr_file:rerr = Unix.WEXITED 0
        ||
        (* some toolchains reject -ldl (glibc >= 2.34 folds it in) *)
        run_cmd
          (Array.of_list (("cc" :: cflags) @ [ rc; "-o"; runner ]))
          ~stderr_file:rerr
        = Unix.WEXITED 0
      in
      if not runner_ok then
        Error
          (Printf.sprintf "runner build failed:\n%s"
             (read_file (Filename.concat dir "runner.cc.err")))
      else
        Ok
          {
            dir;
            c_file;
            so_file;
            runner;
            prog;
            compile_s = Unix.gettimeofday () -. t0;
          }
    end
  | st ->
      Error
        (Printf.sprintf "cc failed (%s) on %s:\n%s" (status_str st) c_file
           (read_file err))

(* ------------------------------------------------------------------ *)
(* Execute                                                             *)
(* ------------------------------------------------------------------ *)

let write_doubles oc arr =
  let b = Bytes.create 8 in
  Array.iter
    (fun f ->
      Bytes.set_int64_ne b 0 (Int64.bits_of_float f);
      output_bytes oc b)
    arr

let read_doubles ic n =
  let b = Bytes.create (8 * n) in
  really_input ic b 0 (8 * n);
  Array.init n (fun i -> Int64.float_of_bits (Bytes.get_int64_ne b (i * 8)))

let exec ?iters (c : compiled) (inputs : float array list) =
  let expected =
    List.map (fun (b : Ir.buf) -> Ir.numel b) c.prog.Ir.inputs
  in
  let given = List.map Array.length inputs in
  if expected <> given then
    Error
      (Printf.sprintf "input sizes %s, program wants %s"
         (String.concat "," (List.map string_of_int given))
         (String.concat "," (List.map string_of_int expected)))
  else begin
    let out_sizes = List.map Ir.numel c.prog.Ir.outputs in
    let total_out = List.fold_left ( + ) 0 out_sizes in
    let argv =
      match iters with
      | None -> [| c.runner; c.so_file |]
      | Some n -> [| c.runner; c.so_file; string_of_int n |]
    in
    (* A runner that dies mid-protocol (dlopen failure, ASAN abort) must
       surface as an Error, not kill this process via SIGPIPE. *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let restore () =
      match old_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ()
    in
    match
      Unix.open_process_args_full c.runner argv (Unix.environment ())
    with
    | exception e ->
        restore ();
        Error (Printexc.to_string e)
    | proc_out, proc_in, proc_err ->
        (* The runner reads every input before writing anything, so
           writing all inputs, then reading all outputs, then draining
           stderr (closed at process exit) cannot deadlock. *)
        let result =
          try
            List.iter (write_doubles proc_in) inputs;
            flush proc_in;
            close_out proc_in;
            let timed = Option.is_some iters in
            let flat =
              read_doubles proc_out (total_out + if timed then 1 else 0)
            in
            let outs =
              let off = ref 0 in
              List.map
                (fun n ->
                  let a = Array.sub flat !off n in
                  off := !off + n;
                  a)
                out_sizes
            in
            Ok (outs, if timed then flat.(total_out) *. 1e-9 else 0.0)
          with
          | End_of_file -> Error "runner produced short output"
          | Sys_error m -> Error (Printf.sprintf "runner I/O error: %s" m)
        in
        let stderr_txt =
          let b = Buffer.create 256 in
          (try
             while true do
               Buffer.add_channel b proc_err 256
             done
           with _ -> ());
          Buffer.contents b
        in
        let status = Unix.close_process_full (proc_out, proc_in, proc_err) in
        restore ();
        (match (status, result) with
        | Unix.WEXITED 0, Ok outs -> Ok outs
        | Unix.WEXITED 0, Error m ->
            Error
              (m ^ if stderr_txt = "" then "" else ":\n" ^ stderr_txt)
        | st, _ ->
            Error
              (Printf.sprintf "runner %s%s" (status_str st)
                 (if stderr_txt = "" then "" else ":\n" ^ stderr_txt)))
  end

let run c inputs = Result.map fst (exec c inputs)

let time c ~iters inputs =
  if iters < 1 then invalid_arg "C_exec.time: iters < 1";
  Result.map
    (fun (outs, total_s) -> (outs, total_s /. float_of_int iters))
    (exec ~iters c inputs)
