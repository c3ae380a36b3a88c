graphsig-signatures v1
scheme tt
window 0
node "host-a" V
node "peer-1" V
node "peer-2" V
node "host-b" V
node "peer-3" V
sig "host-a" 2 "peer-1" 3 "peer-2" 1
sig "host-b" 2 "peer-2" 2 "peer-3" 1
