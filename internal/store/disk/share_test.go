package disk

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestSharedCloneOfCachedObject: Get hands out clones of the resident
// object, made with no lock held, that share its state until written. Many
// readers cloning one faulted-in object while their clones are written —
// one writer rewriting its clone throughout — must each see the object as
// it was stored, and the resident copy must stay as it was. Run under
// -race this also checks the shared marking itself.
func TestSharedCloneOfCachedObject(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	o := obj("shared")
	o.Set("n", "0")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = openStore(t, dir, Options{})
	first, err := s.Get(o.URN) // a cold fault: the resident copy is decoded
	if err != nil {
		t.Fatal(err)
	}
	want := first.Encode()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		w, err := s.Get(o.URN)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w.Set("k", fmt.Sprint(i))
			w.Delete("n")
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 16; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				c, err := s.Get(o.URN)
				if err != nil {
					t.Error(err)
					return
				}
				if got := c.Encode(); !bytes.Equal(got, want) {
					t.Errorf("reader %d saw % x, want % x", g, got, want)
					return
				}
				c.Set("k", fmt.Sprint(g))
				if v, _ := c.Get("k"); v != fmt.Sprint(g) {
					t.Errorf("reader %d: its own write reads back %q", g, v)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if occ := s.Occupancy(); occ.ColdFaults != 1 {
		t.Fatalf("%d cold faults, want the first Get's alone", occ.ColdFaults)
	}
	again, err := s.Get(o.URN)
	if err != nil || !bytes.Equal(again.Encode(), want) {
		t.Fatalf("resident copy changed: %v", err)
	}
}
