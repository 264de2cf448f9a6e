package history

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseRules feeds arbitrary bytes to the -alert-rules decoder. It
// must never panic; every rule it accepts must pass Validate unchanged
// (ParseRules already normalized it), and the accepted rules, marshalled
// again, must parse back equal.
func FuzzParseRules(f *testing.F) {
	for _, s := range []string{
		`[{"name":"q","metric":"serve.queue.depth","value":10}]`,
		`[{"name":"h","metric":"go.heap_alloc_bytes","kind":"delta","op":"<=","value":-5e8,"window":"30s"}]`,
		`[{"name":"b","metric":"ledger.epsilon_committed","kind":"burn_rate","value":14,"window":300000000000,"budget":4,"horizon":"1h"}]`,
		`[{"name":"x","metric":"m","value":1,"window":"-5m","horizon":-1}]`,
		`[{"name":"x","metric":"m","kind":"burn_rate","budget":1,"horizon":"2562047h47m16.854775807s"}]`,
		`[{"name":"x","metric":"m","op":"=="}]`,
		`[{"name":"ÿ\ud800","metric":"m","value":1e308}]`,
		`[]`,
		`null`,
		`[{"name":"x","metric":"m","window":1.5}]`,
		`not json`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rules, err := ParseRules(data)
		if err != nil {
			return
		}
		for i := range rules {
			r := rules[i]
			if err := r.Validate(); err != nil {
				t.Fatalf("accepted rule %+v fails Validate: %v", rules[i], err)
			}
			if r != rules[i] {
				t.Fatalf("Validate changed accepted rule %+v to %+v", rules[i], r)
			}
		}
		out, err := json.Marshal(rules)
		if err != nil {
			t.Fatalf("marshalling accepted rules %+v: %v", rules, err)
		}
		again, err := ParseRules(out)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", out, err)
		}
		if !reflect.DeepEqual(again, rules) {
			t.Fatalf("rules %+v marshal to %s, which parses as %+v", rules, out, again)
		}
	})
}
