package a

import "testing"

func TestA(t *testing.T) {
	Dead()
	_ = T{}.Size() + DeadConst
}
