module eagletree/bench

go 1.22

require eagletree v0.0.0

replace eagletree => ../
