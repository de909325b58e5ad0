package service

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/algo"
	"repro/internal/multilevel"
)

// Every algo.Options field is declared exactly once: keyed (it can change a
// partition, so it is part of the cache key) or result-neutral (normalized
// out of the key). A new option that is in neither list fails here before
// it can make two different results share a key.
func TestCacheKeyDeclaresEveryOption(t *testing.T) {
	declared := map[string]int{}
	for _, k := range keyedOptions {
		declared[k.field]++
	}
	for _, name := range neutralOptions {
		declared[name]++
	}
	typ := reflect.TypeOf(algo.Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch declared[name] {
		case 0:
			t.Errorf("algo.Options.%s is neither keyed nor declared result-neutral", name)
		case 1:
		default:
			t.Errorf("algo.Options.%s is declared %d times", name, declared[name])
		}
		delete(declared, name)
	}
	for name := range declared {
		t.Errorf("declared option %s is not an algo.Options field", name)
	}
	tags := map[string]bool{}
	for _, k := range keyedOptions {
		if tags[k.tag] {
			t.Errorf("key tag %q is used twice", k.tag)
		}
		tags[k.tag] = true
	}
}

// Changing any keyed field changes the key; setting every neutral field
// leaves the normalized options, and so the key, untouched.
func TestCacheKeyCoversKeyedOptions(t *testing.T) {
	base := algo.Options{Parts: 4}
	baseKey := cacheKeyFromHash("sha256:x", "kl", base)
	for _, k := range keyedOptions {
		o := base
		reflect.ValueOf(&o).Elem().FieldByName(k.field).SetInt(99)
		if cacheKeyFromHash("sha256:x", "kl", o) == baseKey {
			t.Errorf("changing %s does not change the cache key", k.field)
		}
	}
	o := base
	o.Workers, o.EvalWorkers = 3, 5
	o.Ctx = context.Background()
	o.MultilevelStats = &multilevel.Stats{}
	if n := normalizeOptions(o); !reflect.DeepEqual(n, base) {
		t.Errorf("normalizeOptions left neutral fields set: %+v", n)
	}
}
