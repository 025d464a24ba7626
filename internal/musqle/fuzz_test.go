package musqle

import (
	"reflect"
	"testing"

	"github.com/asap-project/ires/internal/sqldata"
)

// FuzzParse checks that no input makes Parse panic, and that every query it
// accepts prints (Query.SQL) to text that parses back to the same query.
// Inputs that once crashed Parse are kept in testdata/fuzz/FuzzParse. Run it
// with
//
//	go test -run '^$' -fuzz FuzzParse ./internal/musqle
func FuzzParse(f *testing.F) {
	cat := NewCatalog()
	if err := cat.LoadTPCH(sqldata.Generate(0.002, 11)); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"SELECT * FROM customer",
		"SELECT c_custkey, o_orderdate FROM customer, orders WHERE o_custkey = c_custkey AND o_orderdate > 5",
		"select l.l_orderkey from lineitem l where l_quantity <= 3;",
		"SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_quantity != 7",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql, cat)
		if err != nil {
			return
		}
		_ = q.Validate()
		again, err := Parse(q.SQL(), cat)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its SQL() %q is rejected: %v", sql, q.SQL(), err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("Parse(%q) = %+v, but its SQL() %q parses to %+v", sql, q, q.SQL(), again)
		}
	})
}
