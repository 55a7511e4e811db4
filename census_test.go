package helios

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"helios/internal/cluster"
	"helios/internal/deploy"
	"helios/internal/kvstore"
	"helios/internal/mq"
	"helios/internal/overload"
	"helios/internal/rpc"
	"helios/internal/sampler"
	"helios/internal/serving"
)

// TestOptionCensus pins every exported field, name and type, of the option
// and config types a caller fills to testdata/options.txt, so the settable
// surface only moves on purpose: an added or removed field fails until the
// golden changes in the same diff, as TestFlagCensus does for each role
// binary's flags. An embedded struct is one field here, and its own fields
// are listed under its type.
func TestOptionCensus(t *testing.T) {
	var got strings.Builder
	for _, v := range []any{
		serving.Config{}, sampler.Config{}, overload.Config{},
		kvstore.Options{}, mq.Options{}, rpc.Options{},
		deploy.File{}, deploy.OverloadFile{},
		cluster.Options{}, cluster.BrokerOptions{}, cluster.SamplerOptions{},
		cluster.ServerOptions{}, cluster.FrontendOptions{}, cluster.Control{},
		Options{},
	} {
		typ := reflect.TypeOf(v)
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				fmt.Fprintf(&got, "%s.%s %s\n", typ, f.Name, f.Type)
			}
		}
	}
	want, err := os.ReadFile("testdata/options.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("option fields differ from testdata/options.txt:\n%s\nwant:\n%s", got.String(), want)
	}
}
