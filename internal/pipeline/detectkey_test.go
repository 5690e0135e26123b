package pipeline

import (
	"testing"

	"fgbs/internal/corpus"
)

// TestDetectKeyWalkIsCompact: on fgbsbench's 40-codelet corpus, the
// structural walk detectKey hashes is no bigger than the pseudo-source
// rendering (Program.Source) it replaced as key material.
func TestDetectKeyWalkIsCompact(t *testing.T) {
	progs, err := corpus.Mixed(20140215, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	apps, err := corpus.ComposeApps(20140215, 2, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	walk, source := 0, 0
	for _, p := range append(progs, apps...) {
		walk += len(appendProgram(nil, p))
		source += len(p.Source())
	}
	t.Logf("walk %d bytes, pseudo-source %d bytes", walk, source)
	if walk > source {
		t.Errorf("detect key walk is %d bytes, more than the %d-byte pseudo-source", walk, source)
	}
}
