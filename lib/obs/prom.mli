(** Prometheus text-format (0.0.4) rendering of a {!Metrics.snapshot},
    so a scrape endpoint (or [mirage_cli request metrics
    --prometheus]) can feed a stock collector. Counters and gauges map
    directly; {!Hdr} sketches become [summary] series with p50/p90/p99.
    Metric names are sanitized to [[a-zA-Z0-9_:]]. *)

val sanitize : string -> string

val render : Metrics.snapshot -> string
