package hyperpraw

import (
	"strings"
	"testing"
)

func buildTestHypergraph(t *testing.T) *Hypergraph {
	t.Helper()
	h, err := UnmarshalHMetis(strings.NewReader("3 5\n1 2 3\n2 4\n3 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in      string
		algo    Algorithm
		mapping bool
		ok      bool
	}{
		{"aware", AlgorithmAware, false, true},
		{"aware-parallel", AlgorithmAwareParallel, false, true},
		{"oblivious", AlgorithmOblivious, false, true},
		{"basic", AlgorithmOblivious, false, true},
		{"multilevel", AlgorithmMultilevel, false, true},
		{"hierarchical", AlgorithmHierarchical, false, true},
		{"aware+mapping", AlgorithmAware, true, true},
		{"multilevel+mapping", AlgorithmMultilevel, true, true},
		{" aware ", AlgorithmAware, false, true},
		{"", "", false, false},
		{"+mapping", "", false, false},
		{"quantum", "", false, false},
	}
	for _, tc := range cases {
		algo, mapping, err := ParseAlgorithm(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("%q: err %v", tc.in, err)
			continue
		}
		if tc.ok && (algo != tc.algo || mapping != tc.mapping) {
			t.Errorf("%q: got (%q, %t), want (%q, %t)", tc.in, algo, mapping, tc.algo, tc.mapping)
		}
	}
}

func TestMachineSpec(t *testing.T) {
	spec := MachineSpec{}.Normalize()
	if spec.Kind != "archer" || spec.Cores != 64 || spec.Seed != 1 {
		t.Fatalf("defaults %+v", spec)
	}
	if (MachineSpec{Kind: "archer", Cores: 8, Seed: 2}).Key() == (MachineSpec{Kind: "cloud", Cores: 8, Seed: 2}).Key() {
		t.Fatal("distinct kinds share a key")
	}
	for _, kind := range []string{"archer", "cloud"} {
		m, err := MachineSpec{Kind: kind, Cores: 8}.Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if m.NumCores() != 8 {
			t.Fatalf("%s: %d cores", kind, m.NumCores())
		}
	}
	if _, err := (MachineSpec{Kind: "abacus", Cores: 8}).Build(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := (MachineSpec{Kind: "archer", Cores: 1}).Build(); err == nil {
		t.Fatal("1-core machine accepted")
	}
}

// TestMachineSpecValidate pins the wire bound on machine specs: a known
// kind and 2 ≤ cores ≤ maxMachineCores, checked without building the
// machine (and without allocating, so the HTTP handlers can afford it
// before admission control), with Build refusing exactly what Validate
// refuses.
func TestMachineSpecValidate(t *testing.T) {
	for _, spec := range []MachineSpec{
		{}, {Kind: "cloud", Cores: 2}, {Kind: "archer", Cores: maxMachineCores},
	} {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
	}
	for _, spec := range []MachineSpec{
		{Kind: "archer", Cores: 1}, {Kind: "archer", Cores: -4},
		{Kind: "cloud", Cores: maxMachineCores + 1}, {Kind: "archer", Cores: 100000},
		{Kind: "abacus", Cores: 8},
	} {
		if err := spec.Validate(); err == nil {
			t.Fatalf("%+v accepted", spec)
		}
		if _, err := spec.Build(); err == nil {
			t.Fatalf("%+v built", spec)
		}
	}
	ok := MachineSpec{Kind: "archer", Cores: 576}
	if avg := testing.AllocsPerRun(10, func() { _ = ok.Validate() }); avg != 0 {
		t.Fatalf("Validate allocates %.1f objects per call", avg)
	}
}

func TestServeOptionsBridge(t *testing.T) {
	var nilOpts *ServeOptions
	if nilOpts.Options() != nil {
		t.Fatal("nil ServeOptions should bridge to nil")
	}
	so := &ServeOptions{ImbalanceTolerance: 1.3, MaxIterations: 7, RefinementFactor: 0.9,
		DisableRefinement: true, Seed: 5, Workers: 3}
	o := so.Options()
	if o.ImbalanceTolerance != 1.3 || o.MaxIterations != 7 || o.RefinementFactor != 0.9 ||
		!o.DisableRefinement || o.Seed != 5 {
		t.Fatalf("bridge %+v", o)
	}
	// The bridged options are honoured by the partitioner.
	h := buildTestHypergraph(t)
	m, _ := MachineSpec{Kind: "archer", Cores: 4}.Build()
	env := Profile(m)
	_, res, err := PartitionAware(h, env, (&ServeOptions{MaxIterations: 3}).Options())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 3 {
		t.Fatalf("iterations %d exceed bridged cap", res.Iterations)
	}
	if nilOpts.Key() != "opt:default" || so.Key() == nilOpts.Key() {
		t.Fatalf("keys: %q vs %q", so.Key(), nilOpts.Key())
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	a := buildTestHypergraph(t)
	b := buildTestHypergraph(t)
	fa, fb := Fingerprint(a), Fingerprint(b)
	if fa != fb {
		t.Fatalf("equal hypergraphs fingerprint differently: %s vs %s", fa, fb)
	}
	if len(fa) != 32 {
		t.Fatalf("fingerprint length %d", len(fa))
	}
	// The name is excluded from the identity.
	b.SetName("renamed")
	if Fingerprint(b) != fa {
		t.Fatal("renaming changed the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := "3 5\n1 2 3\n2 4\n3 5\n"
	variants := []string{
		"3 5\n1 2 3\n2 4\n3 4\n",                   // different pin
		"2 5\n1 2 3\n2 4\n",                        // fewer edges
		"3 6\n1 2 3\n2 4\n3 5\n",                   // extra (isolated) vertex
		"3 5 1\n2 1 2 3\n1 2 4\n1 3 5\n",           // edge weights
		"3 5 10\n1 2 3\n2 4\n3 5\n2\n1\n1\n1\n1\n", // vertex weights
	}
	h0, err := UnmarshalHMetis(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	f0 := Fingerprint(h0)
	for i, v := range variants {
		h, err := UnmarshalHMetis(strings.NewReader(v))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if Fingerprint(h) == f0 {
			t.Errorf("variant %d shares the base fingerprint", i)
		}
	}
}

func TestMarshalHMetisRoundTrip(t *testing.T) {
	h := buildTestHypergraph(t)
	text, err := MarshalHMetis(h)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := UnmarshalHMetis(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(h) != Fingerprint(h2) {
		t.Fatal("marshal round trip changed the fingerprint")
	}
}
