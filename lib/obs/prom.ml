(* Prometheus text-format exposition (version 0.0.4) of a metrics
   snapshot. Counters and gauges render directly; Hdr latency sketches
   render as the `summary` type with precomputed quantiles, since
   Prometheus has no native sketch type. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let render (s : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  let header name typ =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  List.iter
    (fun (name, v) ->
      let name = sanitize name in
      header name "counter";
      Buffer.add_string buf (Printf.sprintf "%s %d\n" name v))
    s.Metrics.counters;
  List.iter
    (fun (name, v) ->
      let name = sanitize name in
      header name "gauge";
      Buffer.add_string buf (Printf.sprintf "%s %s\n" name (num v)))
    s.Metrics.gauges;
  List.iter
    (fun (name, (d : Hdr.snapshot)) ->
      let name = sanitize name in
      header name "summary";
      List.iter
        (fun q ->
          Buffer.add_string buf
            (Printf.sprintf "%s{quantile=\"%s\"} %s\n" name (num q)
               (num (Hdr.snap_quantile d q))))
        [ 0.5; 0.9; 0.99 ];
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n" name (num d.Hdr.sum));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name d.Hdr.count))
    s.Metrics.hdrs;
  Buffer.contents buf
