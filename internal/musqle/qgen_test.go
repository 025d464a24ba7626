package musqle

import "testing"

// One seed must always generate one query: the evaluation's query set and
// every test drawing from it depend on it.
func TestGenerateQueryDeterministic(t *testing.T) {
	cat := tpchCatalog(t, 0.0002)
	for _, tc := range []struct {
		tables  int
		filters bool
		seed    int64
	}{{3, false, 1}, {5, true, 1009}, {7, true, 1017}} {
		q, err := GenerateQuery(cat, tc.tables, tc.filters, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		want := q.SQL()
		for i := 0; i < 20; i++ {
			q, err := GenerateQuery(cat, tc.tables, tc.filters, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := q.SQL(); got != want {
				t.Fatalf("seed %d, draw %d: %s, want %s", tc.seed, i, got, want)
			}
		}
	}
}
