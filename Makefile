# Developer / CI entry points.  `make check` is the CI gate:
# formatting-clean, full build, full test suite, then one instrumented
# end-to-end compile per framework.

.PHONY: all build test fmt fmt-check smoke fuzz check clean

all: build

build:
	dune build

test:
	dune runtest

# Reformat the dune files in place (ocamlformat is not available in this
# environment, so formatting covers dune files only — see dune-project).
fmt:
	dune fmt

# Fail when any dune file is not formatted.
fmt-check:
	dune build @fmt

# One PolyBench kernel per framework through the instrumented pipeline;
# any nonzero exit fails the target.
SMOKE_SIZE := 64
smoke: build
	dune exec bin/pom_compile.exe -- -w gemm    -s $(SMOKE_SIZE) -f baseline   --timing
	dune exec bin/pom_compile.exe -- -w bicg    -s $(SMOKE_SIZE) -f pluto      --timing
	dune exec bin/pom_compile.exe -- -w gesummv -s $(SMOKE_SIZE) -f polsca     --timing
	dune exec bin/pom_compile.exe -- -w 2mm     -s $(SMOKE_SIZE) -f scalehls   --timing
	dune exec bin/pom_compile.exe -- -w bicg    -s $(SMOKE_SIZE) -f pom-manual --timing
	dune exec bin/pom_compile.exe -- -w gemm    -s $(SMOKE_SIZE) -f pom        --timing --trace

# Property-based refutation: replay the committed counterexample corpus,
# then search fresh cases in each of the four oracle families under a
# wall-clock budget per family.  Exit 2 = counterexample found; the shrunk
# repro is saved into $(FUZZ_CORPUS) ready to commit as a regression test.
FUZZ_SECONDS := 15
FUZZ_CASES := 100000
FUZZ_SEED := 0
FUZZ_CORPUS := test/refute-corpus
fuzz: build
	dune exec bin/pom_refute.exe -- \
	  --seed $(FUZZ_SEED) --cases $(FUZZ_CASES) --budget $(FUZZ_SECONDS) \
	  --corpus $(FUZZ_CORPUS)

check: fmt-check build test smoke

clean:
	dune clean
