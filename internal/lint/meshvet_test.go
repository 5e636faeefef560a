package lint_test

import (
	"testing"

	"meshlayer/internal/lint"
	"meshlayer/internal/lint/linttest"
)

// Each analyzer's testdata package seeds at least one positive case
// per rule plus one //meshvet:allow'd case, so both the detection and
// the suppression paths are pinned by `// want` annotations.

func TestWalltime(t *testing.T) {
	linttest.Run(t, "testdata/walltime", lint.Walltime)
}

func TestGlobalrand(t *testing.T) {
	linttest.Run(t, "testdata/globalrand", lint.Globalrand)
}

func TestMapiter(t *testing.T) {
	linttest.Run(t, "testdata/mapiter", lint.Mapiter)
}

func TestPoolescape(t *testing.T) {
	linttest.Run(t, "testdata/poolescape", lint.Poolescape)
}

func TestIndexowned(t *testing.T) {
	linttest.Run(t, "testdata/indexowned", lint.Indexowned)
}

func TestCtlwrite(t *testing.T) {
	linttest.Run(t, "testdata/ctlwrite", lint.Ctlwrite)
}

// TestDirectives runs the full suite over sources whose directives are
// malformed: every bad directive must surface as a diagnostic and must
// not suppress anything.
func TestDirectives(t *testing.T) {
	linttest.Run(t, "testdata/directive", lint.All...)
}

func TestHeaderreg(t *testing.T) {
	linttest.Run(t, "testdata/headerreg", lint.Headerreg)
}

func TestFluidstate(t *testing.T) {
	linttest.Run(t, "testdata/fluidstate", lint.Fluidstate)
}

func TestMetricdecl(t *testing.T) {
	linttest.Run(t, "testdata/metricdecl", lint.Metricdecl)
}

func TestTimerown(t *testing.T) {
	linttest.Run(t, "testdata/timerown", lint.Timerown)
}

func TestSlidequeue(t *testing.T) {
	linttest.Run(t, "testdata/slidequeue", lint.Slidequeue)
}
