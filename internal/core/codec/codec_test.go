package codec

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

type skiRental struct {
	Shop         string
	Brand        string
	Price        float64
	NumberOfDays float64
}

func TestGobRoundTrip(t *testing.T) {
	c := Gob{}
	if c.Name() != "gob" {
		t.Fatalf("name %q", c.Name())
	}
	in := skiRental{Shop: "XTremShop", Brand: "Salomon", Price: 14, NumberOfDays: 100}
	data, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decode(data, reflect.TypeOf(skiRental{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v", out)
	}
}

func TestGobDecodeWithoutTypeHint(t *testing.T) {
	c := Gob{}
	in := skiRental{Shop: "s"}
	data, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(data, nil); err == nil {
		t.Fatal("gob decode without type accepted")
	}
	var iface any
	if _, err := c.Decode(data, reflect.TypeOf(&iface).Elem()); err == nil {
		t.Fatal("gob decode into an interface type accepted")
	}
	if _, err := c.Decode(data, reflect.TypeOf(in)); err != nil {
		t.Fatal(err)
	}
}

func TestGobTypeMismatch(t *testing.T) {
	c := Gob{}
	data, err := c.Encode(skiRental{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(data, reflect.TypeOf(42)); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestGobGarbage(t *testing.T) {
	c := Gob{}
	if _, err := c.Decode([]byte("not gob at all"), reflect.TypeOf(skiRental{})); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := c.Encode(nil); !errors.Is(err, ErrNilEvent) {
		t.Fatalf("nil encode: %v", err)
	}
	if _, err := c.Encode((*skiRental)(nil)); !errors.Is(err, ErrNilEvent) {
		t.Fatalf("nil pointer encode: %v", err)
	}
}

// Property: gob round-trips arbitrary event field values.
func TestQuickGobRoundTrip(t *testing.T) {
	f := func(shop, brand string, price, days float64) bool {
		in := skiRental{Shop: shop, Brand: brand, Price: price, NumberOfDays: days}
		data, err := Gob{}.Encode(in)
		if err != nil {
			return false
		}
		out, err := Gob{}.Decode(data, reflect.TypeOf(skiRental{}))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(out, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
