"""Empty.  The ratio partitions and joint block diagonalization of
acceptance criterion 7 are a test oracle, in tests/analysis_oracle.py; no
operation of the package reaches them.  The module stays only because
bench/tracing.py imports it by name (MODULES) until ROADMAP item 17 drops
that entry."""
