"""Names and units of every metric the benchmark prints.  BENCHMARK.json
lists the same names."""

WORKLOADS = ["cocart-lift", "gamma-laws", "cli"]

END_TO_END = [("wall_s", "s"), ("case_s.p50", "s"), ("case_s.tail", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]

SUITE_TAGS = [
    "factorization-unique", "day-convolution-laws", "day-coend-oracle",
    "yoneda", "tensor-hom-adjunction", "rep-hom-is-smash-precompose",
    "segal-condition", "normalization-adjunction", "relative-nerve-fibers",
    "cocartesian-detection", "sm-qcat-verdict", "pushout-product-mono",
    "kan-exponential-smash", "semiadditivity-composite",
    "marked-mapping-bijections",
]

# The laws the cli workload runs, each as `check-suite --only TAG`.
# pushout-product-mono is left out: it is one indivisible call of 3-5 s
# (50 pushout-products), and on a shared host a case that long finds no
# equally long quiet stretch in some runs, so its best time moved by a
# quarter from run to run.  Its constructions still run in the cli
# workload through the pushout-product commands.
SUITE_LAWS = [tag for tag in SUITE_TAGS if tag != "pushout-product-mono"]

LAYERS = ["simplicial", "shapes", "nerve", "catcore", "homotopy", "gammaop",
          "gspace", "cocart", "marked", "jsonio", "cli", "suite"]

# (metric, unit) in the order they are printed; BENCHMARK.json lists the same
PER_LAYER = (
    [("simplicial.act.calls", "count"), ("simplicial.act.self_s", "s"),
     ("simplicial.act.repeat_share", "ratio"),
     ("simplicial.word_ops.calls", "count"), ("simplicial.word_ops.self_s", "s"),
     ("simplicial.word_ops.repeat_share", "ratio"),
     ("simplicial.apply_word.calls", "count"), ("simplicial.apply_word.self_s", "s"),
     ("simplicial.SimplexRef.created", "count"),
     ("simplicial.hom_set.calls", "count"), ("simplicial.hom_set.total_s", "s"),
     ("simplicial.hom_set.self_s", "s"), ("simplicial.hom_set.candidates", "count"),
     ("simplicial.hom_set.maps", "count"), ("simplicial.hom_set.yield", "ratio"),
     ("simplicial.hom_set.calls_per_target", "ratio"),
     ("simplicial.hom_set.budget_exhausted", "count"),
     ("simplicial.iso_check.calls", "count"), ("simplicial.iso_check.total_s", "s"),
     ("simplicial.iso_check.candidates", "count"),
     ("simplicial.iso_check.candidates_per_call", "ratio"),
     ("simplicial.from_elements.calls", "count"),
     ("simplicial.from_elements.self_s", "s"),
     ("simplicial.from_elements.cells_out", "count"),
     ("simplicial.product.calls", "count"), ("simplicial.product.total_s", "s"),
     ("simplicial.Colimit.calls", "count"), ("simplicial.Colimit.self_s", "s"),
     ("simplicial.validate.calls", "count"), ("simplicial.validate.self_s", "s"),
     ("shapes.Exponential.calls", "count"), ("shapes.Exponential.total_s", "s"),
     ("shapes.Exponential.self_s", "s"),
     ("shapes.pushout_product.calls", "count"),
     ("shapes.pushout_product.total_s", "s"), ("shapes.pushout_product.self_s", "s"),
     ("shapes.smash.total_s", "s"),
     ("nerve.nerve.calls", "count"), ("nerve.nerve.total_s", "s"),
     ("nerve.tau1.total_s", "s"),
     ("catcore.functor_category.total_s", "s"),
     ("catcore.max_subgroupoid.total_s", "s"),
     ("homotopy.j_qcat.total_s", "s"),
     ("gammaop.enumerate_homs.calls", "count"),
     ("gammaop.enumerate_homs.total_s", "s"),
     ("gammaop.factor_inert_active.calls", "count"),
     ("gammaop.factor_inert_active.total_s", "s"),
     ("gammaop.smash_gamma.calls", "count"), ("gammaop.smash_gamma.self_s", "s"),
     ("gspace.evaluate.calls", "count"), ("gspace.evaluate.total_s", "s"),
     ("gspace.day_convolve.total_s", "s"), ("gspace.day_coend_oracle.total_s", "s"),
     ("gspace.mapping_space.total_s", "s"), ("gspace.segal_check.total_s", "s"),
     ("gspace.normalize.total_s", "s"),
     ("cocart.relative_nerve.calls", "count"), ("cocart.relative_nerve.total_s", "s"),
     ("cocart.cocartesian_edges.calls", "count"),
     ("cocart.cocartesian_edges.self_s", "s"),
     ("cocart.cocartesian_cross_check.total_s", "s"),
     ("marked.marked_hom_set.calls", "count"), ("marked.marked_hom_set.total_s", "s"),
     ("marked.marked_mapping_space.total_s", "s"),
     ("jsonio.load.total_s", "s"), ("jsonio.dump.total_s", "s"),
     ("cli.main.calls", "count"), ("cli.main.self_s", "s")]
    + [(f"suite.{tag}.total_s", "s") for tag in SUITE_LAWS]
    + [(f"{layer}.failures", "count") for layer in LAYERS]
    + [("trace.overhead", "ratio")]
)
