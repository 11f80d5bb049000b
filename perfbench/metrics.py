"""Names and units of every metric the benchmark reports, in report order.

BENCHMARK.json lists the same names; end-to-end bounds live there.
"""

# End-to-end metrics, measured untraced (--trace 0).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("cli_cold_ms", "ms"),
)

# Per-layer metrics (--trace 1).  The traced child measures all but the last
# two, which run.py measures: cli.import_ms and trace.overhead_frac.
LAYER_METRICS = (
    ("localring.nf_calls", "count"),
    ("localring.nf_ms", "ms"),
    ("localring.nf_max_coeff_bits", "bits"),
    ("localring.nf_zero_share", "frac"),
    ("localring.budget_exceeded", "count"),
    ("localring.basis_size_max", "count"),
    ("localring.sb_calls", "count"),
    ("localring.sb_ms", "ms"),
    ("localring.sb_repeat_share", "frac"),
    ("milnor.sb_mu_ms", "ms"),
    ("milnor.oracle_calls", "count"),
    ("milnor.oracle_ms", "ms"),
    ("milnor.semihom_calls", "count"),
    ("equising.sb_calls_per_pair", "count"),
    ("equising.discriminate_ms", "ms"),
    ("gaussian.mul_calls", "count"),
    ("gaussian.mul_real_share", "frac"),
    ("gaussian.add_calls", "count"),
    ("gaussian.div_calls", "count"),
    ("poly.mul_term_calls", "count"),
    ("poly.mul_term_terms", "count"),
    ("poly.mul_calls", "count"),
    ("poly.mul_ms", "ms"),
    ("poly.parse_ms", "ms"),
    ("poly.format_ms", "ms"),
    ("monodromy.char_poly_ms", "ms"),
    ("monodromy.char_poly_mu_max", "count"),
    ("monodromy.zeta_ms", "ms"),
    ("families.mu_profile_ms", "ms"),
    ("families.find_alpha_ms", "ms"),
    ("families.find_line_ms", "ms"),
    ("vectorfields.vf_milnor_ms", "ms"),
    ("corpus.run_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)
