package campiontest_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cisco"
	"repro/internal/ir"
	"repro/internal/juniper"
)

// FuzzParseCisco: the IOS parser never panics, and every span it
// attaches to the parsed configuration points into the input.
func FuzzParseCisco(f *testing.F) {
	fuzzParse(f, cisco.Parse)
}

// FuzzParseJuniper: the same contract for the JunOS parser (curly and
// set formats).
func FuzzParseJuniper(f *testing.F) {
	fuzzParse(f, juniper.Parse)
}

// fuzzParse seeds a parser target with every configuration of the
// golden corpus (diff pairs and repair pairs) and checks the span
// invariant on whatever the parser accepts.
func fuzzParse(f *testing.F, parse func(file, text string) (*ir.Config, error)) {
	seeds, err := filepath.Glob(filepath.Join("golden", "*", "*.cfg"))
	if err != nil {
		f.Fatal(err)
	}
	repairSeeds, err := filepath.Glob(filepath.Join("golden", "repair", "*", "*.cfg"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, repairSeeds...)
	if len(seeds) == 0 {
		f.Fatal("no golden-corpus seeds")
	}
	for _, path := range seeds {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Fuzz(func(t *testing.T, text string) {
		const file = "fuzz.cfg"
		cfg, err := parse(file, text)
		if err != nil || cfg == nil {
			return
		}
		if msg := checkSpans(cfg, file, lineCount(text)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// lineCount is the number of lines in text: newline-terminated lines
// plus a final unterminated one.
func lineCount(text string) int {
	n := strings.Count(text, "\n")
	if text != "" && !strings.HasSuffix(text, "\n") {
		n++
	}
	return n
}

var spanType = reflect.TypeOf(ir.TextSpan{})

// checkSpans walks every TextSpan reachable from cfg and returns a
// description of the first one that does not name file or does not
// satisfy 1 ≤ StartLine ≤ EndLine ≤ lines, or "" if all do. A zero span
// (an element with no source text) is exempt.
func checkSpans(cfg *ir.Config, file string, lines int) string {
	type ref struct {
		t reflect.Type
		p uintptr
	}
	seen := map[ref]bool{}
	var walk func(v reflect.Value, path string) string
	walk = func(v reflect.Value, path string) string {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return ""
			}
			r := ref{v.Type(), v.Pointer()}
			if seen[r] {
				return ""
			}
			seen[r] = true
			return walk(v.Elem(), path)
		case reflect.Interface:
			if v.IsNil() {
				return ""
			}
			return walk(v.Elem(), path)
		case reflect.Struct:
			if v.Type() == spanType {
				return checkSpan(v, path, file, lines)
			}
			for i := 0; i < v.NumField(); i++ {
				if msg := walk(v.Field(i), path+"."+v.Type().Field(i).Name); msg != "" {
					return msg
				}
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				if msg := walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); msg != "" {
					return msg
				}
			}
		case reflect.Map:
			it := v.MapRange()
			for it.Next() {
				p := fmt.Sprintf("%s[%v]", path, it.Key())
				if msg := walk(it.Key(), p); msg != "" {
					return msg
				}
				if msg := walk(it.Value(), p); msg != "" {
					return msg
				}
			}
		}
		return ""
	}
	return walk(reflect.ValueOf(cfg), "Config")
}

// checkSpan checks one reflected TextSpan. Fields are read through
// String/Int, which work on values reached via unexported fields.
func checkSpan(v reflect.Value, path, file string, lines int) string {
	f := v.FieldByName("File").String()
	start := int(v.FieldByName("StartLine").Int())
	end := int(v.FieldByName("EndLine").Int())
	if f == "" && start == 0 && end == 0 && v.FieldByName("Lines").Len() == 0 {
		return ""
	}
	if f != file || start < 1 || start > end || end > lines {
		return fmt.Sprintf("%s: span %s:%d-%d outside %s:1-%d", path, f, start, end, file, lines)
	}
	return ""
}
