package coherence

import (
	"testing"
	"testing/quick"
)

func TestDirectoryBasics(t *testing.T) {
	d := NewDirectory(16)
	if d.Owner(3) != -1 || d.Sharers(3) != 0 {
		t.Fatal("fresh directory not empty")
	}
	d.AddSharer(3, 2, 0)
	d.AddSharer(3, 5, 0)
	if d.Sharers(3) != (1<<2)|(1<<5) {
		t.Errorf("sharers = %b", d.Sharers(3))
	}
	d.SetOwner(3, 7, 0)
	if d.Owner(3) != 7 || d.Sharers(3) != 1<<7 {
		t.Error("SetOwner must clear old sharers and install owner")
	}
	d.Downgrade(3)
	if d.Owner(3) != -1 || d.Sharers(3) != 1<<7 {
		t.Error("Downgrade must keep the copy, drop ownership")
	}
	d.RemoveSharer(3, 7)
	if d.Sharers(3) != 0 {
		t.Error("RemoveSharer failed")
	}
}

func TestDirectoryRemoveOwnerClearsOwner(t *testing.T) {
	d := NewDirectory(4)
	d.SetOwner(1, 3, 0)
	d.RemoveSharer(1, 3)
	if d.Owner(1) != -1 {
		t.Error("evicting the owner must clear ownership")
	}
}

func TestDirectoryForEachSharer(t *testing.T) {
	d := NewDirectory(4)
	for _, n := range []int{0, 3, 9, 15} {
		d.AddSharer(2, n, 0)
	}
	var visited []int
	d.ForEachSharer(2, 9, func(n int) { visited = append(visited, n) })
	want := []int{0, 3, 15}
	if len(visited) != len(want) {
		t.Fatalf("visited %v", visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Errorf("visited %v, want %v", visited, want)
		}
	}
}

// TestDirectoryWays: each sharer's L2 way is recorded independently of the
// other nodes' and reported only while the node is a sharer.
func TestDirectoryWays(t *testing.T) {
	d := NewDirectory(4)
	if _, ok := d.Way(2, 0); ok {
		t.Fatal("fresh directory reports a sharer way")
	}
	for n := 0; n < MaxNodes; n++ {
		d.AddSharer(2, n, 15-n)
	}
	for n := 0; n < MaxNodes; n++ {
		if w, ok := d.Way(2, n); !ok || w != 15-n {
			t.Errorf("node %d: way %d ok=%v, want %d", n, w, ok, 15-n)
		}
	}
	d.SetOwner(2, 9, 3)
	if w, ok := d.Way(2, 9); !ok || w != 3 {
		t.Errorf("owner way %d ok=%v, want 3", w, ok)
	}
	if _, ok := d.Way(2, 8); ok {
		t.Error("SetOwner left another node a sharer way")
	}
	d.RemoveSharer(2, 9)
	if _, ok := d.Way(2, 9); ok {
		t.Error("removed sharer still reports a way")
	}
	if _, ok := d.Way(1, 9); ok {
		t.Error("ways leaked into a neighbouring block")
	}
}

func TestPresenceL2Way(t *testing.T) {
	p := NewPresence(4)
	if p.L2Way(1) != -1 {
		t.Fatal("fresh presence reports an L2 way")
	}
	for _, w := range []int{0, 15, 7} {
		p.SetL2Way(1, w)
		if got := p.L2Way(1); got != w {
			t.Errorf("L2Way = %d, want %d", got, w)
		}
	}
	p.Clear(1)
	if p.L2Way(1) != 7 {
		t.Error("Clear dropped the L2 way (it clears L1 records only)")
	}
	p.SetL2Way(1, -1)
	if p.L2Way(1) != -1 || p.L2Way(0) != -1 || p.L2Way(2) != -1 {
		t.Error("SetL2Way(-1) did not clear, or leaked into a neighbour")
	}
}

func TestPresenceBasics(t *testing.T) {
	p := NewPresence(8)
	p.Add(1, 0)
	p.Add(1, 2)
	if !p.HasPeer(1, 0) || !p.HasPeer(1, 3) {
		t.Error("HasPeer wrong")
	}
	if p.HasPeer(1, 2) && p.Holders(1) == 1<<2 {
		t.Error("HasPeer must exclude self")
	}
	p.SetOwner(1, 2)
	if p.Owner(1) != 2 {
		t.Error("owner not recorded")
	}
	p.Remove(1, 2)
	if p.Owner(1) != -1 || p.Holders(1) != 1 {
		t.Errorf("after Remove: owner=%d holders=%b", p.Owner(1), p.Holders(1))
	}
	p.Clear(1)
	if p.Holders(1) != 0 {
		t.Error("Clear failed")
	}
}

func TestPresenceClearOwnerKeepsCopy(t *testing.T) {
	p := NewPresence(4)
	p.SetOwner(2, 1)
	p.ClearOwner(2)
	if p.Owner(2) != -1 || p.Holders(2) != 1<<1 {
		t.Error("ClearOwner must keep the holder bit")
	}
}

// Property: the directory's owner, when set, is always within the sharer
// bitmap, under arbitrary operation sequences.
func TestQuickDirectoryOwnerIsSharer(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDirectory(8)
		for _, op := range ops {
			b := uint64(op % 8)
			n := int(op/8) % 16
			switch op % 4 {
			case 0:
				d.AddSharer(b, n, int(op)%16)
			case 1:
				d.SetOwner(b, n, int(op)%16)
			case 2:
				d.RemoveSharer(b, n)
			case 3:
				d.Downgrade(b)
			}
			for blk := uint64(0); blk < 8; blk++ {
				if o := d.Owner(blk); o >= 0 && d.Sharers(blk)&(1<<uint(o)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: presence owner, when set, is always among the holders.
func TestQuickPresenceOwnerIsHolder(t *testing.T) {
	f := func(ops []uint8) bool {
		p := NewPresence(4)
		for _, op := range ops {
			b := uint64(op % 4)
			n := int(op/4) % 8
			switch op % 4 {
			case 0:
				p.Add(b, n)
			case 1:
				p.SetOwner(b, n)
			case 2:
				p.Remove(b, n)
			case 3:
				p.Clear(b)
			}
			for blk := uint64(0); blk < 4; blk++ {
				if o := p.Owner(blk); o >= 0 && p.Holders(blk)&(1<<uint(o)) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
